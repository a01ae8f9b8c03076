package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"time"

	"busytime"
	"busytime/internal/interval"
	"busytime/internal/stats"
)

// Data-plane payload sizes (fixed-size request ops).
const (
	placeLen   = 4 + 8 + 8 + 4 // handle, start, end, demand
	releaseLen = 4 + 8         // handle, job
	statsLen   = 4             // handle
)

// pendFrame is one decoded request frame awaiting its batch's processing
// pass. Decoding up front (rather than keeping raw payload slices) is what
// lets the whole batch share one read buffer.
type pendFrame struct {
	op     byte
	h      uint32
	iv     busytime.Interval
	demand int
	job    int
	bad    bool // malformed coordinates → RejectInvalid, never placed
}

// dconn is one data-plane connection: buffered reader/writer over the
// socket plus every per-connection scratch buffer the steady-state loop
// reuses, so a warm connection serves place/release frames with zero
// allocations.
type dconn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	hdr     [frameHeader]byte // read scratch
	whdr    [frameHeader]byte // write scratch
	rbuf    []byte            // frame payload buffer (readFrameInto storage)
	pbuf    [16]byte          // reply payload scratch
	handles []string          // handle → interned tenant key
	pend    []pendFrame       // decoded batch
	reqs    []busytime.PlaceRequest
	res     []busytime.PlaceResult
	jsonBuf bytes.Buffer // statsOK payloads
}

func (s *Server) newConn(nc net.Conn) *dconn {
	return &dconn{
		s:  s,
		nc: nc,
		br: bufio.NewReaderSize(nc, 32<<10),
		bw: bufio.NewWriterSize(nc, 32<<10),
	}
}

// serve runs the connection until EOF, a protocol violation, or the drain
// deadline closes it.
func (c *dconn) serve() {
	defer c.nc.Close()
	for {
		if err := c.serveBatch(); err != nil {
			return
		}
	}
}

// serveBatch reads one batch of frames — the first read blocks, then the
// loop drains whatever already sits in the read buffer up to MaxBatch —
// processes them in order, and flushes the replies. One syscall in, one
// processing pass, one syscall out. The returned error ends the
// connection; protocol violations send a hangup frame first.
func (c *dconn) serveBatch() error {
	c.pend = c.pend[:0]
	for {
		op, payload, buf, err := readFrameInto(c.br, &c.hdr, c.rbuf)
		c.rbuf = buf
		if err != nil {
			if len(c.pend) == 0 {
				return err // idle connection went away; nothing owed
			}
			return c.hangup(fmt.Errorf("mid-batch read: %w", err))
		}
		if err := c.decode(op, payload); err != nil {
			return c.hangup(err)
		}
		if len(c.pend) >= c.s.cfg.MaxBatch || c.br.Buffered() < frameHeader {
			break
		}
	}
	if err := c.process(); err != nil {
		return err
	}
	return c.bw.Flush()
}

// decode validates one frame and appends it to the pending batch. Errors
// are protocol violations (hangup); malformed coordinates in an otherwise
// well-formed place frame are marked bad and answered with RejectInvalid
// instead, because they are a data problem, not a framing problem.
func (c *dconn) decode(op byte, p []byte) error {
	switch op {
	case opOpen:
		if len(c.handles) >= maxHandles {
			return fmt.Errorf("handle limit %d reached", maxHandles)
		}
		if len(p) == 0 {
			return fmt.Errorf("open: empty tenant key")
		}
		c.handles = append(c.handles, string(p))
		c.pend = append(c.pend, pendFrame{op: op, h: uint32(len(c.handles) - 1)})
		return nil
	case opPlace:
		if len(p) != placeLen {
			return fmt.Errorf("place: payload %d bytes, want %d", len(p), placeLen)
		}
		h := binary.LittleEndian.Uint32(p)
		if int(h) >= len(c.handles) {
			return fmt.Errorf("place: unknown handle %d", h)
		}
		start := math.Float64frombits(binary.LittleEndian.Uint64(p[4:]))
		end := math.Float64frombits(binary.LittleEndian.Uint64(p[12:]))
		demand := int(binary.LittleEndian.Uint32(p[20:]))
		f := pendFrame{op: op, h: h, demand: demand}
		if interval.Check(start, end) != nil {
			f.bad = true // NaN, infinite or reversed: answer RejectInvalid
		} else {
			f.iv = busytime.Interval{Start: start, End: end}
		}
		c.pend = append(c.pend, f)
		return nil
	case opRelease:
		if len(p) != releaseLen {
			return fmt.Errorf("release: payload %d bytes, want %d", len(p), releaseLen)
		}
		h := binary.LittleEndian.Uint32(p)
		if int(h) >= len(c.handles) {
			return fmt.Errorf("release: unknown handle %d", h)
		}
		c.pend = append(c.pend, pendFrame{op: op, h: h, job: int(binary.LittleEndian.Uint64(p[4:]))})
		return nil
	case opStats:
		if len(p) != statsLen {
			return fmt.Errorf("stats: payload %d bytes, want %d", len(p), statsLen)
		}
		h := binary.LittleEndian.Uint32(p)
		if int(h) >= len(c.handles) {
			return fmt.Errorf("stats: unknown handle %d", h)
		}
		c.pend = append(c.pend, pendFrame{op: op, h: h})
		return nil
	case opPing:
		c.pend = append(c.pend, pendFrame{op: op})
		return nil
	default:
		return fmt.Errorf("unknown opcode 0x%02x", op)
	}
}

// process answers every pending frame in order. Contiguous same-handle
// place runs land as one PlaceBatch — one shard-lock acquisition for the
// run — and each frame's endpoint histogram observes the batch's service
// time, so queueing behind a batch is visible in the percentiles.
func (c *dconn) process() error {
	t0 := time.Now()
	srv := c.s
	i := 0
	for i < len(c.pend) {
		f := &c.pend[i]
		switch f.op {
		case opPlace:
			if f.bad { // never reaches the session; see decode
				c.s.countReject(RejectInvalid)
				c.pbuf[0] = RejectInvalid
				if err := writeFrame(c.bw, &c.whdr, opReject, c.pbuf[:1]); err != nil {
					return err
				}
				i++
				continue
			}
			j := i + 1
			for j < len(c.pend) && c.pend[j].op == opPlace && c.pend[j].h == f.h && !c.pend[j].bad {
				j++
			}
			if err := c.placeRun(c.pend[i:j]); err != nil {
				return c.hangup(err)
			}
			i = j
		case opRelease:
			ok, err := srv.pool.Release(c.handles[f.h], f.job)
			if err != nil {
				ok = false // unknown feed index: report not-released, keep the connection
			}
			c.pbuf[0] = 0
			if ok {
				c.pbuf[0] = 1
			}
			if err := writeFrame(c.bw, &c.whdr, opReleased, c.pbuf[:1]); err != nil {
				return err
			}
			i++
		case opStats:
			st, _ := srv.pool.Stats(c.handles[f.h]) // zero stats for an unknown tenant
			c.jsonBuf.Reset()
			if err := stats.WriteJSON(&c.jsonBuf, st); err != nil {
				return c.hangup(err)
			}
			if err := writeFrame(c.bw, &c.whdr, opStatsOK, c.jsonBuf.Bytes()); err != nil {
				return err
			}
			i++
		case opOpen:
			binary.LittleEndian.PutUint32(c.pbuf[:], f.h)
			if err := writeFrame(c.bw, &c.whdr, opOpenOK, c.pbuf[:4]); err != nil {
				return err
			}
			i++
		case opPing:
			if err := writeFrame(c.bw, &c.whdr, opPong, nil); err != nil {
				return err
			}
			i++
		}
	}
	d := time.Since(t0)
	for i := range c.pend {
		switch c.pend[i].op {
		case opPlace:
			srv.placeHist.Observe(d)
		case opRelease:
			srv.releaseHist.Observe(d)
		case opStats:
			srv.statsHist.Observe(d)
		}
	}
	srv.frames.Add(uint64(len(c.pend)))
	return nil
}

// placeRun lands one contiguous same-handle run of place frames as a
// single PlaceBatch and writes the per-frame replies.
func (c *dconn) placeRun(run []pendFrame) error {
	c.reqs = c.reqs[:0]
	for k := range run {
		c.reqs = append(c.reqs, busytime.PlaceRequest{Iv: run[k].iv, Demand: run[k].demand})
	}
	if cap(c.res) < len(run) {
		c.res = make([]busytime.PlaceResult, len(run))
	}
	res := c.res[:len(run)]
	if err := c.s.pool.PlaceBatch(c.handles[run[0].h], c.reqs, res); err != nil {
		return err // length mismatch: a server bug, not client data
	}
	for k := range res {
		if res[k].Err != nil {
			code := rejectCode(res[k].Err)
			c.s.countReject(code)
			c.pbuf[0] = code
			if err := writeFrame(c.bw, &c.whdr, opReject, c.pbuf[:1]); err != nil {
				return err
			}
			continue
		}
		c.s.accepted.Add(1)
		binary.LittleEndian.PutUint32(c.pbuf[:], uint32(res[k].Machine))
		binary.LittleEndian.PutUint64(c.pbuf[4:], uint64(res[k].Job))
		if err := writeFrame(c.bw, &c.whdr, opPlaced, c.pbuf[:12]); err != nil {
			return err
		}
	}
	return nil
}

// hangup reports a protocol violation to the peer and ends the connection.
func (c *dconn) hangup(cause error) error {
	c.s.cfg.Logf("busyschedd: data conn %v: %v", c.nc.RemoteAddr(), cause)
	_ = writeFrame(c.bw, &c.whdr, opHangup, []byte(cause.Error()))
	_ = c.bw.Flush()
	return cause
}

// countReject attributes one typed rejection to its telemetry counter.
func (s *Server) countReject(code byte) {
	switch code {
	case RejectRate:
		s.rejRate.Add(1)
	case RejectLive:
		s.rejLive.Add(1)
	case RejectShutdown:
		s.rejShutdown.Add(1)
	default:
		s.rejInvalid.Add(1)
	}
}
