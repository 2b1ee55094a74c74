package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/experiments"
	"querypricing/internal/valuation"
)

// rosterSeed pins the roster's datasets, support samples and valuation
// draw (the experiments' default seed). The roster is the paper's fixed
// pricing problem; were its valuations drawn from the benchmark seed,
// revenue fractions would spread by up to 9% between seeds and the
// revenue gate could not tell a regression from a different draw.
const rosterSeed = 1

// rosterPasses repeated passes give setup_s's roster share and
// calibrate_s as their medians; rosterSlices reference slices are timed
// before each call into experiments and after each pass.
const (
	rosterPasses = 3
	rosterSlices = 2
)

// rosterInstances are the paper's four pricing instances, built by
// experiments.Build at its default scale and support size.
var rosterInstances = []experiments.Workload{experiments.Skewed, experiments.Uniform, experiments.TPCH, experiments.SSB}

// rosterCounts are the roster's work counts and results; they must repeat
// exactly.
type rosterCounts struct {
	QueryEvals   int               `json:"query_evals"`
	PrunedByCols int               `json:"pruned_by_cols"`
	PrunedByPred int               `json:"pruned_by_pred"`
	DeltaProbes  int               `json:"delta_probes"`
	Fallbacks    int               `json:"fallbacks"`
	Pairs        int               `json:"pairs"`
	LPSolves     int               `json:"lp_solves"`
	RevenueFrac  map[string]string `json:"revenue_frac"` // exact decimal of the mean over instances
}

// rosterPass is one pass over the four instances.
type rosterPass struct {
	gen      time.Duration      // dataset and corpus generation: Build's wall time minus its BuildTime
	wall     time.Duration      // construction (BuildTime) plus RunAll, the measured phase
	revenue  map[string]float64 // algorithm → mean revenue/Σ valuations over instances
	algoTime map[string]time.Duration
	counts   rosterCounts
}

// runRoster builds each instance with experiments.Build (dataset, corpus,
// support sample, conflict hypergraph) and prices it with every
// registered algorithm through experiments.RunAll under Uniform[1,100]
// valuations, checking every output. With a tracer it records a span for
// each instance's construction and each algorithm's run, from the
// durations the two calls report. With sp it takes reference slices
// (phase "roster") around every call.
func runRoster(tr *tracer, sp *speed, t *tally) rosterPass {
	out := rosterPass{revenue: map[string]float64{}, algoTime: map[string]time.Duration{}}
	defer sp.sample("roster", rosterSlices)
	for _, name := range rosterInstances {
		sp.sample("roster", rosterSlices)
		t0 := time.Now()
		sc, err := experiments.Build(experiments.Config{Workload: name, Seed: rosterSeed})
		built := time.Since(t0)
		if err != nil {
			t.fail("%s: build: %v", name, err)
			continue
		}
		tr.record("support.build", sc.BuildTime)
		out.gen += built - sc.BuildTime
		if !t.check(sc.H.NumEdges() == len(sc.Queries), "%s: %d hyperedges for %d queries", name, sc.H.NumEdges(), len(sc.Queries)) {
			continue
		}
		tune := experiments.DefaultTuning(name)
		tune.WithBound = false
		sp.sample("roster", rosterSlices)
		t0 = time.Now()
		pt, err := experiments.RunAll(sc.H, valuation.Uniform{K: valK}, rosterSeed, tune)
		priced := time.Since(t0)
		if err != nil {
			t.fail("%s: %v", name, err)
			continue
		}
		out.wall += sc.BuildTime + priced
		// RunAll prices the roster in order and returns right after the
		// last algorithm, so the spans are laid back to back ending now.
		end := time.Now()
		for i := len(pt.Results) - 1; i >= 0; i-- {
			r := pt.Results[i]
			tr.recordEnded("pricing."+r.Algorithm, end, r.Runtime)
			end = end.Add(-r.Runtime)
		}
		t.check(len(pt.Results) == len(engine.List()), "%s: %d algorithms priced, %d registered", name, len(pt.Results), len(engine.List()))
		for _, r := range pt.Results {
			if !t.check(pt.SumValuations > 0 && !math.IsNaN(r.Normalized) && !math.IsInf(r.Normalized, 0) && r.Normalized >= 0 && r.Normalized <= 1,
				"%s: %s revenue fraction %v", name, r.Algorithm, r.Normalized) {
				continue
			}
			out.revenue[r.Algorithm] += r.Normalized / float64(len(rosterInstances))
			out.algoTime[r.Algorithm] += r.Runtime
			out.counts.LPSolves += r.LPSolves
		}
		out.counts.QueryEvals += sc.Stats.QueryEvals
		out.counts.PrunedByCols += sc.Stats.PrunedByCols
		out.counts.PrunedByPred += sc.Stats.PrunedByPred
		out.counts.DeltaProbes += sc.Stats.DeltaProbes
		out.counts.Fallbacks += sc.Stats.Fallbacks
		out.counts.Pairs += len(sc.Queries) * sc.Set.Size()
	}
	out.counts.RevenueFrac = map[string]string{}
	for name, v := range out.revenue {
		out.counts.RevenueFrac[name] = fmt.Sprintf("%.17g", v)
	}
	return out
}

// rosterPhase is the timed roster: rosterPasses passes, each generating
// the four instances (set-up) and then constructing and pricing them
// (measured).
type rosterPhase struct {
	setup   []float64 // seconds of generation per pass
	passes  []float64 // seconds of construction and pricing per pass
	revenue map[string]float64
	counts  rosterCounts
}

func timedRoster(sp *speed, t *tally) rosterPhase {
	var ph rosterPhase
	for i := 0; i < rosterPasses; i++ {
		runtime.GC()
		p := runRoster(nil, sp, t)
		ph.setup = append(ph.setup, p.gen.Seconds())
		ph.passes = append(ph.passes, p.wall.Seconds())
		if i == 0 {
			ph.revenue, ph.counts = p.revenue, p.counts
			continue
		}
		// Every pass must reproduce the first exactly.
		t.check(fmt.Sprint(p.counts) == fmt.Sprint(ph.counts), "roster pass %d counts %+v, pass 0 %+v", i, p.counts, ph.counts)
	}
	return ph
}
