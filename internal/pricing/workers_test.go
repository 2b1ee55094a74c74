package pricing_test

import (
	"math"
	"runtime"
	"testing"

	"querypricing/internal/experiments"
	"querypricing/internal/pricing"
	"querypricing/internal/valuation"
)

// TestWorkersByteIdentical prices the four experiment instances (seed 1,
// Uniform[1,100] valuations, default tuning) with LPIP and CIP serially
// and over a worker pool, and requires byte-identical results: weight
// bits, revenue bits, LP count and diagnostics. The pool has at least four
// workers, so candidates are solved out of order even on one core.
func TestWorkersByteIdentical(t *testing.T) {
	pool := max(runtime.GOMAXPROCS(0), 4)
	for _, w := range []experiments.Workload{experiments.Skewed, experiments.Uniform, experiments.TPCH, experiments.SSB} {
		sc, err := experiments.Build(experiments.Config{Workload: w, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		valuation.Apply(sc.H, valuation.Uniform{K: 100}, 1)
		tune := experiments.DefaultTuning(w)
		algos := []struct {
			name string
			run  func(workers int) (pricing.Result, error)
		}{
			{"LPIP", func(n int) (pricing.Result, error) {
				return pricing.LPItem(sc.H, pricing.LPItemOptions{MaxCandidates: tune.LPIPCandidates, Workers: n})
			}},
			{"CIP", func(n int) (pricing.Result, error) {
				return pricing.Capacity(sc.H, pricing.CapacityOptions{Epsilon: tune.CIPEpsilon, Workers: n})
			}},
		}
		for _, a := range algos {
			serial, err := a.run(1)
			if err != nil {
				t.Fatalf("%s %s serial: %v", w, a.name, err)
			}
			pooled, err := a.run(pool)
			if err != nil {
				t.Fatalf("%s %s workers=%d: %v", w, a.name, pool, err)
			}
			if serial.LPSolves < 2 {
				t.Fatalf("%s %s: %d LP solves, nothing to run concurrently", w, a.name, serial.LPSolves)
			}
			if math.Float64bits(serial.Revenue) != math.Float64bits(pooled.Revenue) ||
				serial.LPSolves != pooled.LPSolves || serial.Extra != pooled.Extra ||
				len(serial.Weights) != len(pooled.Weights) {
				t.Fatalf("%s %s: serial (rev %v, %d LPs, %q, %d weights) != workers=%d (rev %v, %d LPs, %q, %d weights)",
					w, a.name, serial.Revenue, serial.LPSolves, serial.Extra, len(serial.Weights),
					pool, pooled.Revenue, pooled.LPSolves, pooled.Extra, len(pooled.Weights))
			}
			for j := range serial.Weights {
				if math.Float64bits(serial.Weights[j]) != math.Float64bits(pooled.Weights[j]) {
					t.Fatalf("%s %s: weight %d serial %v, workers=%d %v", w, a.name, j, serial.Weights[j], pool, pooled.Weights[j])
				}
			}
		}
	}
}
