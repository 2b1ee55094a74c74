package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/market"
	"querypricing/internal/serve"
)

// timed is the untraced end-to-end run: set-up, serve traffic, crash and
// recovery, then the roster.
func timed(w serveWorkload, a runArgs, dir string, t *tally) (metrics, runCounts, error) {
	var c runCounts
	sp, err := newSpeed()
	if err != nil {
		return nil, c, err
	}
	defer sp.close()

	// Set-up: setupTrials fresh boots, each between reference slices; the
	// last one serves.
	var bootSecs []float64
	var s *serve.Server
	var bootDir string
	for i := 0; i < setupTrials; i++ {
		if s != nil {
			if err := s.Close(); err != nil {
				return nil, c, fmt.Errorf("closing set-up boot: %w", err)
			}
			os.RemoveAll(bootDir)
		}
		bootDir = filepath.Join(dir, fmt.Sprintf("boot-%d", i))
		sp.sample("setup", setupSlices)
		var d time.Duration
		var err error
		if s, d, err = boot(w, bootDir); err != nil {
			return nil, c, fmt.Errorf("boot: %w", err)
		}
		bootSecs = append(bootSecs, d.Seconds())
	}
	sp.sample("setup", setupSlices)
	p, err := buildPools(s.Broker().DB(), a.seed)
	if err != nil {
		return nil, c, err
	}

	ts := httptest.NewServer(s.Routes())
	cl := newClient(ts.URL)
	// Once the op prefix is done, copy the data directory as the crash
	// image (every acknowledged write is already fsynced) and quote the
	// probes. The state there is a function of the seed alone, so every
	// run of a seed recovers the same bytes, however far the timed traffic
	// then gets.
	crashDir := filepath.Join(dir, "crash")
	probes := probeSet(p)
	var want []market.Quote
	var prefixErr error
	atPrefix := func() {
		if prefixErr = copyDir(bootDir, crashDir); prefixErr == nil {
			want, prefixErr = quoteAll(s.Broker(), probes)
		}
	}
	tr := drive(cl, s.Broker(), w, p, a.seed, driveSpec{
		minDur: time.Duration(a.seconds) * time.Second, atPrefix: atPrefix, sp: sp,
	}, t)
	if prefixErr != nil {
		return nil, c, fmt.Errorf("at op %d: %w", countPrefix, prefixErr)
	}
	c.Serve = tr.counts
	fmt.Fprintln(os.Stderr, describe(w, &tr))
	checkCompactions(w, s.Broker().Compactions(), t)
	quoteP50, ok := tr.quotes.pct(50)
	if !ok {
		return nil, c, fmt.Errorf("no quote samples")
	}
	// The tails, and the durable writes' latency, are printed, not bounded
	// (README.md).
	for _, q := range []struct {
		name string
		s    *samples
	}{{"quote", &tr.quotes}, {"write", &tr.writes}} {
		fmt.Fprintf(os.Stderr, "%s ms (%d samples):", q.name, q.s.n())
		for _, pc := range []int{50, 90, 95, 98, 99} {
			fmt.Fprintf(os.Stderr, " p%d=%.3f", pc, q.s.pctOr0(pc))
		}
		fmt.Fprintf(os.Stderr, " max=%.3f\n", q.s.max())
	}
	// Release the samples, whose number follows the throughput, before the
	// heap is weighed.
	tr.quotes, tr.writes = samples{}, samples{}

	// Crash: stop serving and abandon the server without Close.
	cl.http.CloseIdleConnections()
	ts.Close()
	s, ts = nil, nil

	// The recovery gate: every restart, each from a fresh copy of the crash
	// image, must recover rather than recalibrate and quote the probes as
	// before the crash. Restart times are printed, not bounded (README.md).
	// The first recovered server is weighed (live_heap_mb).
	var recSecs []float64
	var heap float64
	for i := 0; i < restarts; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(crashDir, rdir); err != nil {
			return nil, c, err
		}
		r, d, err := boot(w, rdir)
		if err != nil {
			t.fail("restart %d: %v", i, err)
			continue
		}
		recSecs = append(recSecs, d.Seconds())
		t.check(r.Restored(), "restart %d calibrated from scratch instead of recovering", i)
		checkProbes(r.Broker(), probes, want, fmt.Sprintf("restart %d", i), t)
		if i == 0 {
			var err error
			heap, err = workingSetHeapMB(r.Broker(), p.corpus)
			t.check(err == nil, "restart 0: quoting the corpus: %v", err)
		}
		if err := r.Close(); err != nil {
			t.fail("restart %d close: %v", i, err)
		}
		os.RemoveAll(rdir)
	}
	runtime.GC()

	ro := timedRoster(sp, t)
	c.Roster = ro.counts
	if sp.err != nil {
		return nil, c, sp.err
	}
	fmt.Fprintf(os.Stderr, "boots %v; restarts %v; roster passes %v\n", bootSecs, recSecs, ro.passes)

	// Every timing is reported at the reference speed of the phase it was
	// measured in (speed.go); the raw values go to standard error.
	setupX, rosterX := sp.scale("setup", mean), sp.scale("roster", mean)
	m := metrics{}
	raw := metrics{}
	both := func(name string, v, x float64, unit string) {
		raw.set(name, v, unit)
		m.set(name, v*x, unit)
	}
	m.set("setup_s", median(bootSecs)*setupX+median(ro.setup)*rosterX, "s")
	raw.set("setup_s", median(bootSecs)+median(ro.setup), "s")
	// Capacity: ops per second the lane was busy. Unpaced (serve_read)
	// that is ops per measured second; paced (serve_churn) ops per second
	// of measured time outside the pacing sleeps, which would otherwise
	// pin the rate to the pace.
	both("ops_per_s", float64(tr.ops)/tr.busy.Seconds(), 1/sp.scale("traffic", mean), "ops/s")
	both("quote_p50_ms", quoteP50, sp.scale("traffic", median), "ms")
	both("calibrate_s", median(ro.passes), rosterX, "s")
	m.set("live_heap_mb", heap, "MB")
	for _, name := range engine.List() {
		m.set("revenue_frac."+name, ro.revenue[name], "fraction")
	}
	sp.describe(os.Stderr)
	fmt.Fprintln(os.Stderr, "raw timings:")
	printTable(os.Stderr, raw)
	return m, c, nil
}

// checkCompactions is the workload's compaction gate: serve_churn must
// fire at least one epoch and serve_read none.
func checkCompactions(w serveWorkload, n uint64, t *tally) {
	if w.wantCompactions {
		t.check(n > 0, "%s fired no compaction epoch", w.name)
	} else {
		t.check(n == 0, "%s fired %d compaction epochs", w.name, n)
	}
}
