package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a tail
// percentile's rank before the benchmark reports it: fewer, and the
// "percentile" is one or two outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank position of percentile p (0 < p <= 100)
// among n samples: the smallest r with r >= p·n/100, in integer arithmetic
// so that p99 of 1000 samples is exactly rank 990.
func rank(p, n int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailSupported reports whether n samples carry at least minBeyond
// samples beyond the rank of percentile p.
func tailSupported(p, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// samples collects one measurement series (latencies in a fixed unit) in
// arrival order.
type samples struct {
	vals   []float64
	sorted []float64 // vals sorted, built on demand
}

func (s *samples) add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = nil
}

func (s *samples) addDur(d time.Duration, unit time.Duration) {
	s.add(float64(d) / float64(unit))
}

func (s *samples) n() int { return len(s.vals) }

// pct returns the nearest-rank percentile p of the samples, and false when
// the series is empty or p is a tail percentile (above the median) that
// the sample count does not support.
func (s *samples) pct(p int) (float64, bool) {
	n := len(s.vals)
	if n == 0 || (p > 50 && !tailSupported(p, n)) {
		return 0, false
	}
	if s.sorted == nil {
		s.sorted = append([]float64(nil), s.vals...)
		sort.Float64s(s.sorted)
	}
	return s.sorted[rank(p, n)-1], true
}

// pctOr0 is pct with unsupported or empty series reported as 0 (per-layer
// metrics of a layer the workload does not reach).
func (s *samples) pctOr0(p int) float64 {
	v, _ := s.pct(p)
	return v
}

func (s *samples) max() float64 {
	m := 0.0
	for _, v := range s.vals {
		if v > m {
			m = v
		}
	}
	return m
}

func (s *samples) sum() float64 {
	t := 0.0
	for _, v := range s.vals {
		t += v
	}
	return t
}

// median of a small series of repeated whole-phase timings (set-up trials,
// restarts, roster passes).
func median(vals []float64) float64 {
	s := samples{vals: append([]float64(nil), vals...)}
	v, _ := s.pct(50)
	return v
}

// tally is the run's failure accounting: every operation the benchmark
// attempts (request, restart, roster instance, check) is counted once,
// and counted failed when it errs, returns a non-2xx status, or its
// output fails a check.
type tally struct {
	attempted int
	failed    int
	errs      []string // the first few failures, for the error report
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

// check records one verified outcome, ok when cond holds and a failure
// described by the format otherwise, and returns cond.
func (t *tally) check(cond bool, format string, args ...any) bool {
	if cond {
		t.ok()
	} else {
		t.fail(format, args...)
	}
	return cond
}
