package bench

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"
)

// Span is one call from the benchmark into a layer of the program, timed on
// the recorder's clock. Spans of one request share Req; Parent is the index
// of the span that caused this one, or -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
}

// Recorder keeps spans in a buffer allocated up front, so recording never
// allocates; spans past its capacity are counted and dropped. A nil
// *Recorder records nothing, which is how untraced runs call it. Begin and
// End may be called from several goroutines at once.
type Recorder struct {
	epoch   time.Time
	spans   []Span
	next    atomic.Int32
	dropped atomic.Int64
}

// NewRecorder returns a recorder with room for capacity spans.
func NewRecorder(capacity int) *Recorder {
	return &Recorder{epoch: time.Now(), spans: make([]Span, capacity)}
}

// Sampled reports whether request req is traced when one request in every
// is: tracing every call of a hot path would fill the buffer at once.
func (r *Recorder) Sampled(req, every int64) bool {
	return r != nil && req%every == 0
}

// Begin opens a span and returns its index, or -1 when r is nil or full.
func (r *Recorder) Begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if int(i) >= len(r.spans) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = Span{Name: name, Start: int64(time.Since(r.epoch)), Parent: parent, Req: req}
	return i
}

// End closes span i; it does nothing for -1.
func (r *Recorder) End(i int32) {
	if i < 0 {
		return
	}
	r.spans[i].End = int64(time.Since(r.epoch))
}

// Spans returns the recorded spans. Call it only after every goroutine that
// records has finished.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans[:min(int(r.next.Load()), len(r.spans))]
}

// Dropped returns how many spans did not fit.
func (r *Recorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.dropped.Load()
}

// LayerTime is the self time one span name accumulated.
type LayerTime struct {
	Calls int
	Self  time.Duration
}

// SelfTimes returns, per span name, the number of closed spans and their
// summed self time: a span's duration minus the part of its interval that
// the union of its children's intervals covers. Overlapping children (calls
// made concurrently on the parent's behalf) are counted once.
func SelfTimes(spans []Span) map[string]LayerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= s.Start {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]LayerTime)
	for i, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		self := s.End - s.Start - covered(s.Start, s.End, children[int32(i)])
		lt := out[s.Name]
		lt.Calls++
		lt.Self += time.Duration(self)
		out[s.Name] = lt
	}
	return out
}

// covered returns the length of [lo, hi] that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo // everything before cur is already counted or outside
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// WriteSpans writes spans as one JSON object per line.
func WriteSpans(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return fmt.Errorf("writing span %d: %w", i, err)
		}
	}
	return bw.Flush()
}
