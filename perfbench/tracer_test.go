package main

import (
	"testing"
	"time"
)

func TestSelfTimeArithmetic(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		// An op: 10ms, whose market call covers 1..5 and whose encode
		// covers 8..12 but is clipped at the op's end.
		{ID: 1, Name: "client.op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "market.update", Start: 1 * ms, End: 5 * ms},
		{ID: 3, Parent: 1, Name: "serve.encode", Start: 8 * ms, End: 12 * ms},
		// Two fsyncs inside the update that overlap each other count once:
		// 2..3.5 ∪ 3..4 = 2ms.
		{ID: 4, Parent: 2, Name: "store.wal_fsync", Start: 2 * ms, End: 3*ms + ms/2},
		{ID: 5, Parent: 2, Name: "store.wal_fsync", Start: 3 * ms, End: 4 * ms},
		// A root span with no children is all self time.
		{ID: 6, Name: "pricing.LPIP", Start: 20 * ms, End: 27 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"client":  10*ms - 4*ms - 2*ms, // minus 1..5 and the clipped 8..10
		"market":  4*ms - 2*ms,
		"serve":   4 * ms,
		"store":   ms + ms/2 + ms,
		"pricing": 7 * ms,
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("%s self time %v, want %v", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.setOp(3)
	root := tr.begin("client.op")
	child := tr.begin("market.quote")
	tr.record("store.wal_fsync", time.Microsecond)
	tr.end(child)
	tr.end(root)
	tr.setOp(-1)
	after := tr.begin("pricing.UBP")
	tr.end(after)
	if len(tr.spans) != 4 {
		t.Fatalf("%d spans", len(tr.spans))
	}
	parents := []int{0, 1, 2, 0}
	ops := []int{3, 3, 3, -1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.Op != ops[i] || s.End < s.Start {
			t.Errorf("span %d: %+v", i, s)
		}
	}
	if d := tr.durations("store.wal_fsync", time.Microsecond); d.n() != 1 || d.vals[0] != 1 {
		t.Errorf("recorded span %v", d.vals)
	}
	var none *tracer
	if id := none.begin("x"); id != 0 || none.end(id) != 0 || none.durations("x", time.Second).n() != 0 {
		t.Error("nil tracer recorded something")
	}
}
