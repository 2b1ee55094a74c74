package main

import "testing"

func TestNearestRankPercentile(t *testing.T) {
	var s samples
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.add(v)
	}
	for _, c := range []struct {
		p    int
		want float64
	}{{1, 1}, {20, 1}, {21, 2}, {50, 3}, {60, 3}, {61, 4}, {100, 5}} {
		// p above 50 on five samples is an unsupported tail, so read the
		// rank directly for those.
		got := []float64{1, 2, 3, 4, 5}[rank(c.p, s.n())-1]
		if c.p <= 50 {
			got, _ = s.pct(c.p)
		}
		if got != c.want {
			t.Errorf("p%d of 1..5 = %v, want %v", c.p, got, c.want)
		}
	}
	if r := rank(99, 1000); r != 990 {
		t.Errorf("rank(99, 1000) = %d, want 990", r)
	}
	if r := rank(50, 1); r != 1 {
		t.Errorf("rank(50, 1) = %d, want 1", r)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	if tailSupported(99, 999) {
		t.Error("p99 of 999 samples has 9 beyond its rank, but is reported")
	}
	if !tailSupported(99, 1000) {
		t.Error("p99 of 1000 samples has 10 beyond its rank, but is refused")
	}
	if !tailSupported(90, 100) || tailSupported(90, 99) {
		t.Error("p90 needs exactly 100 samples")
	}

	var s samples
	for i := 1; i <= 999; i++ {
		s.add(float64(i))
	}
	if _, ok := s.pct(99); ok {
		t.Error("pct(99) reported on 999 samples")
	}
	if v := s.pctOr0(99); v != 0 {
		t.Errorf("pctOr0(99) on 999 samples = %v, want 0", v)
	}
	s.add(1000)
	if v, ok := s.pct(99); !ok || v != 990 {
		t.Errorf("pct(99) of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := s.pct(50); !ok || v != 500 {
		t.Errorf("pct(50) of 1..1000 = %v, %v; want 500, true", v, ok)
	}
	var empty samples
	if _, ok := empty.pct(50); ok {
		t.Error("median of no samples reported")
	}
}

func TestMedianOfTrials(t *testing.T) {
	if m := median([]float64{2.5, 1.5, 9}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	tl.ok()
	tl.ok()
	if !tl.check(true, "unused") {
		t.Error("check(true) reported false")
	}
	if tl.check(false, "op %d: status %d", 7, 500) {
		t.Error("check(false) reported true")
	}
	tl.fail("transport error")
	if tl.attempted != 5 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 5 and 2", tl.attempted, tl.failed)
	}
	if tl.errs[0] != "op 7: status 500" || tl.errs[1] != "transport error" {
		t.Errorf("errors %q", tl.errs)
	}
	for i := 0; i < 20; i++ {
		tl.fail("more")
	}
	if tl.failed != 22 || len(tl.errs) != 8 {
		t.Errorf("failed %d with %d kept messages, want 22 and 8", tl.failed, len(tl.errs))
	}
}
