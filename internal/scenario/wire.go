package scenario

import (
	"encoding/json"
	"fmt"
	"time"

	"busytime"
	"busytime/internal/core"
	"busytime/internal/server"
	"busytime/internal/stats"
)

// wireBatch is how many place frames the wire replay pipelines per flush —
// the same default batch the daemon's connection reader drains in one
// processing pass, so one batch is one shard-lock acquisition server-side.
const wireBatch = 64

// runWire replays the stream over the framed data plane in the instance's
// start order (the order the online-* rows place in): frames are pipelined
// wireBatch at a time (send, flush, drain the replies in order), rejects
// are counted rather than fatal — an admission-limited or draining
// server is an answer, not a transport failure — and the server's own
// per-tenant stats are fetched over the final stats frame so the report
// shows the authoritative server-side cost and competitive ratio.
func runWire(cfg Config, in *core.Instance) (*WireReport, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("wire mode needs an address")
	}
	c, err := server.Dial(cfg.Addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	h, err := c.Open(cfg.Tenant)
	if err != nil {
		return nil, err
	}
	rep := &WireReport{Addr: cfg.Addr, Tenant: cfg.Tenant, BatchSize: wireBatch}
	var hist stats.Hist
	order := in.StartOrder()
	for at := 0; at < len(order); at += wireBatch {
		end := at + wireBatch
		if end > len(order) {
			end = len(order)
		}
		t0 := time.Now()
		for _, j := range order[at:end] {
			job := in.Jobs[j]
			if err := c.SendPlace(h, job.Iv.Start, job.Iv.End, job.Demand); err != nil {
				return nil, err
			}
		}
		if err := c.Flush(); err != nil {
			return nil, err
		}
		for range order[at:end] {
			r, err := c.ReadReply()
			if err != nil {
				return nil, err
			}
			switch {
			case r.IsPlaced():
				rep.Placed++
			case r.IsReject():
				rep.Rejected++
			default:
				return nil, fmt.Errorf("wire: unexpected reply op 0x%02x", r.Op)
			}
		}
		hist.Observe(time.Since(t0))
	}
	if err := c.SendStats(h); err != nil {
		return nil, err
	}
	if err := c.Flush(); err != nil {
		return nil, err
	}
	r, err := c.ReadReply()
	if err != nil {
		return nil, err
	}
	if len(r.Payload) == 0 {
		return nil, fmt.Errorf("wire: stats reply op 0x%02x with no payload", r.Op)
	}
	var st busytime.OnlineStats
	if err := json.Unmarshal(r.Payload, &st); err != nil {
		return nil, fmt.Errorf("wire: decoding server stats: %w", err)
	}
	rep.Stats = st
	rep.Latency = hist.Summary()
	return rep, nil
}
