package main

import (
	"math"
	"testing"
)

// kinds renders ops as one letter each: q quote, b batch, p purchase,
// u update, d update that tries a delete.
func kinds(seed int64, m mix, n int) string {
	out := make([]byte, n)
	for k := range out {
		o := opAt(seed, m, k)
		out[k] = "qbpu"[o.Kind]
		if o.TryDelete {
			out[k] = 'd'
		}
	}
	return string(out)
}

// TestOpSequenceGolden pins the seed → op mapping: a change here changes
// every workload's traffic, and with it every recorded figure.
func TestOpSequenceGolden(t *testing.T) {
	if got, want := kinds(1, churnMix, 40), "qqqqqquqbqbbqqqqqqqqpuuquduqqqbqdqpqqudq"; got != want {
		t.Errorf("churn seed 1:\n got %s\nwant %s", got, want)
	}
	if got, want := kinds(7, readMix, 40), "qqqqqqqqqqqqqqqqqqqqqqqqqqqqqbqpqqqqqqqq"; got != want {
		t.Errorf("read seed 7:\n got %s\nwant %s", got, want)
	}
	for k, want := range []uint64{0x98bc9b3a9f64da94, 0x92e5b929d9a8e421, 0xc1f8943fa900e153, 0x6ef5671e093bba0b} {
		if got := opAt(1, churnMix, k).Pick; got != want {
			t.Errorf("op %d pick %#x, want %#x", k, got, want)
		}
	}
	if got := opAt(1, churnMix, 0).body(986); got != int(0x98bc9b3a9f64da94%986) {
		t.Errorf("body index %d", got)
	}
}

func TestOpSequenceMixAndSeeds(t *testing.T) {
	const n = 200000
	for _, c := range []struct {
		name string
		m    mix
		want [4]float64
	}{
		{"read", readMix, [4]float64{0.90, 0.05, 0.05, 0}},
		{"churn", churnMix, [4]float64{0.60, 0.05, 0.05, 0.30}},
	} {
		var got [4]float64
		deletes := 0.0
		for k := 0; k < n; k++ {
			o := opAt(3, c.m, k)
			got[o.Kind]++
			if o.TryDelete {
				deletes++
			}
		}
		for i := range got {
			if share := got[i] / n; math.Abs(share-c.want[i]) > 0.005 {
				t.Errorf("%s: %s share %.4f, want %.2f", c.name, opKind(i), share, c.want[i])
			}
		}
		if got[opUpdate] > 0 {
			if share := deletes / got[opUpdate]; math.Abs(share-deleteShare) > 0.01 {
				t.Errorf("%s: delete share of updates %.4f, want %.2f", c.name, share, deleteShare)
			}
		}
	}
	if kinds(1, churnMix, 200) == kinds(2, churnMix, 200) {
		t.Error("seeds 1 and 2 give the same churn sequence")
	}
}

func TestLaneDropsSlotsOnEpoch(t *testing.T) {
	p := &pools{updates: [][]byte{[]byte(`pooled`)}}
	var l lane
	l.learn(map[string][]int{"City": {801}, "Country": {240, 241}}, 0)
	if len(l.deletable) != 3 || l.deletable[0] != (slotRef{"City", 801}) {
		t.Fatalf("queue %v", l.deletable)
	}
	body, err := l.updateBody(op{Kind: opUpdate, TryDelete: true}, p)
	if err != nil || string(body) != `[{"Table":"City","Row":801,"Col":0,"New":{"K":0,"I":0,"F":0,"S":""},"Op":"delete"}]` {
		t.Errorf("delete body %s, %v", body, err)
	}
	if body, _ := l.updateBody(op{Kind: opUpdate}, p); string(body) != "pooled" {
		t.Errorf("non-delete arrival sent %s", body)
	}
	// The response that reports an epoch also reports inserts assigned
	// before it: those are stale too.
	l.learn(map[string][]int{"City": {900}}, 1)
	if len(l.deletable) != 0 {
		t.Errorf("queue survived a compaction epoch: %v", l.deletable)
	}
	if body, _ := l.updateBody(op{Kind: opUpdate, TryDelete: true}, p); string(body) != "pooled" {
		t.Errorf("empty queue sent %s", body)
	}
}
