package lp_test

import (
	"sync"
	"testing"

	"querypricing/internal/experiments"
	"querypricing/internal/hypergraph"
	"querypricing/internal/pricing"
	"querypricing/internal/valuation"
)

// The calibration benchmarks solve the LPs that calibration solves, at
// their real size (about a thousand rows), on the experiments' instances
// at seed 1 under Uniform[1,100] valuations with the default tuning. They
// run one worker, so they time the simplex kernel (plus building each LP
// and scoring its pricing), not the candidate fan-out.

var instances sync.Map // experiments.Workload -> *hypergraph.Hypergraph

func instance(b *testing.B, w experiments.Workload) *hypergraph.Hypergraph {
	b.Helper()
	if h, ok := instances.Load(w); ok {
		return h.(*hypergraph.Hypergraph)
	}
	sc, err := experiments.Build(experiments.Config{Workload: w, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	valuation.Apply(sc.H, valuation.Uniform{K: 100}, 1)
	instances.Store(w, sc.H)
	return sc.H
}

// BenchmarkCalibrationLPIPUniform solves LPIP's 16 threshold LPs on the
// uniform instance.
func BenchmarkCalibrationLPIPUniform(b *testing.B) {
	h := instance(b, experiments.Uniform)
	tune := experiments.DefaultTuning(experiments.Uniform)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pricing.LPItem(h, pricing.LPItemOptions{MaxCandidates: tune.LPIPCandidates, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrationCIPSkewed solves CIP's welfare LP for every capacity
// of the skewed instance's (1+0.2) grid.
func BenchmarkCalibrationCIPSkewed(b *testing.B) {
	h := instance(b, experiments.Skewed)
	tune := experiments.DefaultTuning(experiments.Skewed)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := pricing.Capacity(h, pricing.CapacityOptions{Epsilon: tune.CIPEpsilon, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
