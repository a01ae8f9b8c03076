package bench

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// A parent [0, 100] with children [10, 30], [20, 50] (overlapping the
// first) and [60, 70]; the second child has a grandchild [25, 35]. The
// children cover [10, 50] ∪ [60, 70] = 50 of the parent's 100.
func TestSelfTimesSubtractsUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},
		{Name: "child", Start: 60, End: 70, Parent: 0},
		{Name: "grandchild", Start: 25, End: 35, Parent: 2},
		{Name: "open", Start: 5, End: 0, Parent: -1}, // never ended
	}
	self := SelfTimes(spans)
	want := map[string]LayerTime{
		"parent":     {Calls: 1, Self: 50},
		"child":      {Calls: 3, Self: 20 + (30 - 10) + 10},
		"grandchild": {Calls: 1, Self: 10},
	}
	if len(self) != len(want) {
		t.Fatalf("self times %v, want %v", self, want)
	}
	for name, lt := range want {
		if self[name] != lt {
			t.Errorf("%s: %+v, want %+v", name, self[name], lt)
		}
	}
}

// Children that reach outside their parent count only inside it.
func TestSelfTimesClipsChildren(t *testing.T) {
	self := SelfTimes([]Span{
		{Name: "p", Start: 10, End: 20, Parent: -1},
		{Name: "c", Start: 5, End: 12, Parent: 0},
		{Name: "c", Start: 18, End: 40, Parent: 0},
	})
	if got := self["p"].Self; got != 6 {
		t.Fatalf("parent self = %v, want 6", got)
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *Recorder
	if r.Sampled(0, 1) {
		t.Fatal("nil recorder sampled a request")
	}
	id := r.Begin("x", -1, 0)
	r.End(id)
	if id != -1 || r.Spans() != nil || r.Dropped() != 0 {
		t.Fatalf("nil recorder: id %d spans %v dropped %d", id, r.Spans(), r.Dropped())
	}
}

func TestRecorderDropsPastCapacityConcurrently(t *testing.T) {
	r := NewRecorder(100)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				id := r.Begin("s", -1, int64(g*50+i))
				time.Sleep(time.Microsecond)
				r.End(id)
			}
		}()
	}
	wg.Wait()
	spans := r.Spans()
	if len(spans) != 100 || r.Dropped() != 100 {
		t.Fatalf("%d spans kept, %d dropped", len(spans), r.Dropped())
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %+v not closed", s)
		}
	}
}

func TestWriteSpans(t *testing.T) {
	var buf bytes.Buffer
	spans := []Span{{Name: "a", Start: 1, End: 2, Parent: -1, Req: 7}, {Name: "b", Start: 1, End: 2, Parent: 0}}
	if err := WriteSpans(&buf, spans); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	for i := range spans {
		var s Span
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		if s != spans[i] {
			t.Fatalf("line %d: %+v, want %+v", i, s, spans[i])
		}
	}
}
