package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/market"
	"querypricing/internal/plan"
	"querypricing/internal/relational"
	"querypricing/internal/store"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
	"querypricing/internal/workloads"
)

// handlerQuotes is how many warm quotes the traced run times both through
// the handler alone and over the socket.
const handlerQuotes = 500

// layers are the modules the traced run attributes self time to; client
// is the benchmark's own bookkeeping around each replayed op.
var layers = []string{"client", "serve", "market", "support", "plan", "relational", "store", "pricing"}

// traced is the per-layer run. It drives the seed's op prefix over HTTP
// untraced (for the counts, the process counters and the round trip),
// then replays the same prefix socket-free through the layers with a
// span around every call, and runs one traced roster pass.
func traced(w serveWorkload, a runArgs, dir string, t *tally) (metrics, runCounts, error) {
	var c runCounts
	tr := newTracer()
	m := metrics{}

	// 1. The served prefix: counts, process counters, warm round trips.
	s, _, err := boot(w, filepath.Join(dir, "served"))
	if err != nil {
		return nil, c, fmt.Errorf("boot: %w", err)
	}
	p, err := buildPools(s.Broker().DB(), a.seed)
	if err != nil {
		return nil, c, err
	}
	ts := httptest.NewServer(s.Routes())
	cl := newClient(ts.URL)
	before := sampleProc()
	served := drive(cl, s.Broker(), w, p, a.seed, driveSpec{}, t)
	pd := procBetween(before, sampleProc(), served.ops)
	c.Serve = served.counts
	checkCompactions(w, s.Broker().Compactions(), t)

	handler, rtt := handlerVsRoundTrip(s.Routes(), cl, w, p, a.seed, tr, t)
	s.Broker().DrainPlans()
	probes := probeSet(p)
	want, err := quoteAll(s.Broker(), probes)
	if err != nil {
		return nil, c, fmt.Errorf("probe quotes: %w", err)
	}
	cl.http.CloseIdleConnections()
	ts.Close()
	s = nil // crashed: abandoned without Close
	if err := traceRecovery(w, filepath.Join(dir, "served"), dir, probes, want, tr, t); err != nil {
		return nil, c, err
	}
	runtime.GC()

	// 2. The same prefix replayed through store.Manager and market.Broker.
	rp, err := newMarketReplay(w, p, filepath.Join(dir, "replay"), tr)
	if err != nil {
		return nil, c, err
	}
	for k := 0; k < countPrefix; k++ {
		rp.op(k, opAt(a.seed, w.mix, k), t)
	}
	rp.pc.snapshot(countPrefix, rp.b)
	t.check(rp.pc.counts == served.counts, "replay counts %+v, served %+v", rp.pc.counts, served.counts)
	if err := rp.mgr.Close(); err != nil {
		return nil, c, fmt.Errorf("closing replay store: %w", err)
	}
	runtime.GC()

	// 3. The prefix's updates through relational, support and plan.
	lo := replayLayers(w, p, a.seed, tr, t)
	t.check(lo.compactions == served.counts.Compactions, "layer replay fired %d compactions, served %d", lo.compactions, served.counts.Compactions)
	runtime.GC()

	// 4. One roster pass through the same calls as the timed run.
	ro := runRoster(tr, nil, t)
	c.Roster = ro.counts

	tr.setOp(-1)
	if err := os.MkdirAll(filepath.Join(a.workdir, "traces"), 0o755); err != nil {
		return nil, c, err
	}
	if err := tr.write(filepath.Join(a.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.name, a.seed))); err != nil {
		return nil, c, err
	}

	us, ms, sec := time.Microsecond, time.Millisecond, time.Second
	d := tr.durations
	m.set("serve.decode_us.p50", d("serve.decode", us).pctOr0(50), "us")
	m.set("serve.encode_us.p50", d("serve.encode", us).pctOr0(50), "us")
	m.set("serve.quote_handler_us.p50", handler.pctOr0(50), "us")
	m.set("client.roundtrip_overhead_us", rtt.pctOr0(50)-handler.pctOr0(50), "us")

	quotes := d("market.quote", us)
	m.set("market.quote_us.p50", quotes.pctOr0(50), "us")
	m.set("market.quote_us.p99", quotes.pctOr0(99), "us")
	hits, misses := served.counts.CacheHits, served.counts.CacheMisses
	m.set("market.conflict_hit_frac", float64(hits)/float64(max(hits+misses, 1)), "fraction")
	m.set("market.quote_batch_ms.p50", d("market.quote_batch", ms).pctOr0(50), "ms")
	m.set("market.purchase_us.p50", d("market.purchase", us).pctOr0(50), "us")
	updates := d("market.update", ms)
	m.set("market.update_ms.p50", updates.pctOr0(50), "ms")
	m.set("market.update_ms.p99", updates.pctOr0(99), "ms")
	m.set("market.plans_deferred_per_update", float64(served.deferred)/float64(max(served.counts.Updates, 1)), "count")
	m.set("market.compactions", float64(served.counts.Compactions), "count")
	m.set("market.compact_ms.max", d("market.compact", ms).max(), "ms")
	m.set("market.calibrate_s", d("market.calibrate", sec).pctOr0(50), "s")
	m.set("market.restore_s", d("market.restore", sec).pctOr0(50), "s")

	m.set("support.generate_s", d("support.generate", sec).pctOr0(50), "s")
	m.set("support.build_s", d("support.build", sec).sum(), "s")
	m.set("support.query_evals", float64(ro.counts.QueryEvals), "count")
	m.set("support.delta_probes", float64(ro.counts.DeltaProbes), "count")
	m.set("support.fallbacks", float64(ro.counts.Fallbacks), "count")
	m.set("support.pruned_frac", float64(ro.counts.PrunedByCols+ro.counts.PrunedByPred)/float64(max(ro.counts.Pairs, 1)), "fraction")
	m.set("support.conflict_set_us.p50", d("support.conflict_set", us).pctOr0(50), "us")
	m.set("support.advance_us.p50", d("support.advance", us).pctOr0(50), "us")
	m.set("support.drain_ms.p50", d("support.drain", ms).pctOr0(50), "ms")
	m.set("support.plans_rebased", float64(lo.rebased), "count")
	m.set("support.plans_invalidated", float64(lo.invalidated), "count")
	m.set("support.compact_ms", d("support.compact", ms).pctOr0(50), "ms")

	m.set("plan.compile_us.p50", d("plan.compile", us).pctOr0(50), "us")

	m.set("relational.apply_us.p50", d("relational.apply", us).pctOr0(50), "us")
	m.set("relational.compact_ms", d("relational.compact", ms).pctOr0(50), "ms")
	m.set("relational.eval_us.p50", d("relational.eval", us).pctOr0(50), "us")

	fsyncs := d("store.wal_fsync", ms)
	m.set("store.wal_fsync_ms.p50", fsyncs.pctOr0(50), "ms")
	m.set("store.wal_fsync_ms.p99", fsyncs.pctOr0(99), "ms")
	m.set("store.snapshot_write_ms", d("store.snapshot_write", ms).pctOr0(50), "ms")
	m.set("store.load_s", d("store.load", sec).pctOr0(50), "s")
	m.set("store.wal_bytes_per_update", rp.walBytesPerUpdate(), "bytes")

	for _, name := range engine.List() {
		m.set("pricing."+name+"_s", ro.algoTime[name].Seconds(), "s")
	}
	m.set("lp.solves", float64(ro.counts.LPSolves), "count")
	m.set("pricing.roster_traced_s", ro.wall.Seconds(), "s")

	m.set("proc.cpu_ms_per_op", pd.cpuMsPerOp, "ms")
	m.set("proc.cpu_util", pd.cpuUtil, "cores")
	m.set("proc.gc_pause_ms", pd.gcPauseMs, "ms")

	self := selfTimes(tr.spans)
	for _, l := range layers {
		m.set("self_ms."+l, float64(self[l])/float64(ms), "ms")
	}
	return m, c, nil
}

// handlerVsRoundTrip times warm quotes from past the prefix both through
// the mux alone (Routes().ServeHTTP into a ResponseRecorder) and over the
// socket, alternating, so that their difference is the loopback HTTP
// share of a round trip.
func handlerVsRoundTrip(mux http.Handler, cl *client, w serveWorkload, p *pools, seed int64, tr *tracer, t *tally) (handler, rtt *samples) {
	var bodies [][]byte
	for k := countPrefix; len(bodies) < handlerQuotes; k++ {
		if o := opAt(seed, w.mix, k); o.Kind == opQuote {
			bodies = append(bodies, p.quotes[o.body(len(p.quotes))])
		}
	}
	for _, b := range bodies { // warm the conflict cache
		status, _, err := cl.post("/quote", b)
		t.check(err == nil && status == http.StatusOK, "warm quote: status %d, err %v", status, err)
	}
	handler, rtt = &samples{}, &samples{}
	for _, b := range bodies {
		req := httptest.NewRequest(http.MethodPost, "/quote", bytes.NewReader(b))
		rec := httptest.NewRecorder()
		sp := tr.begin("serve.quote_handler")
		mux.ServeHTTP(rec, req)
		handler.addDur(tr.end(sp), time.Microsecond)
		t.check(rec.Code == http.StatusOK, "handler quote: status %d", rec.Code)

		sp = tr.begin("client.roundtrip")
		status, _, err := cl.post("/quote", b)
		rtt.addDur(tr.end(sp), time.Microsecond)
		t.check(err == nil && status == http.StatusOK, "round-trip quote: status %d, err %v", status, err)
	}
	return handler, rtt
}

// traceRecovery recovers the crashed directory through store.Load and
// market.Restore, once per restart, each from a fresh copy, and checks
// the probe quotes.
func traceRecovery(w serveWorkload, crashed, dir string, probes []*relational.SelectQuery, want []market.Quote, tr *tracer, t *tally) error {
	mc := servedMarket(w.config(""))
	for i := 0; i < restarts; i++ {
		rdir := filepath.Join(dir, fmt.Sprintf("restore-%d", i))
		if err := copyDir(crashed, rdir); err != nil {
			return err
		}
		runtime.GC() // as boot does: every recovery starts from a clean heap
		sp := tr.begin("store.load")
		st, err := store.Open(rdir)
		var res store.LoadResult
		if err == nil {
			res, err = st.Load()
		}
		tr.end(sp)
		if err != nil || res.Snapshot == nil {
			t.fail("restore %d: load: %v", i, err)
			if st != nil {
				st.Close()
			}
			continue
		}
		sp = tr.begin("market.restore")
		b, err := market.Restore(*res.Snapshot, mc)
		tr.end(sp)
		if err != nil {
			t.fail("restore %d: %v", i, err)
		} else {
			checkProbes(b, probes, want, fmt.Sprintf("restore %d", i), t)
		}
		if err := st.Close(); err != nil {
			t.fail("restore %d: close: %v", i, err)
		}
		os.RemoveAll(rdir)
	}
	return nil
}

// bootLayers builds the broker serve.New bootstraps on an empty data
// directory, one layer call at a time: the world dataset, its support
// sample, LPIP calibration on the skewed corpus and the first snapshot.
func bootLayers(w serveWorkload, dir string, tr *tracer) (*market.Broker, *store.Store, *store.Manager, error) {
	cfg := w.config(dir)
	db, mc := servedWorld(cfg), servedMarket(cfg)
	sp := tr.begin("support.generate")
	set, err := servedSupport(db, mc)
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = tr.begin("market.calibrate")
	b, err := market.NewBrokerWithSupport(db, set, mc)
	if err == nil {
		_, err = b.Calibrate(workloads.Skewed(db), valuation.Uniform{K: cfg.ValK}, market.Algorithm(cfg.Algorithm))
	}
	tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	st.SetSyncObserver(func(op string, d time.Duration) { tr.record("store."+op+"_fsync", d) })
	if _, err := st.Load(); err != nil {
		st.Close()
		return nil, nil, nil, err
	}
	mgr := store.NewManager(b, st, store.ManagerOptions{SnapshotEvery: cfg.SnapshotEvery})
	sp = tr.begin("store.snapshot_write")
	err = mgr.Snapshot()
	tr.end(sp)
	if err != nil {
		st.Close()
		return nil, nil, nil, err
	}
	return b, st, mgr, nil
}

// marketReplay replays ops the way the handlers serve them: decode the
// body, call store.Manager or market.Broker, encode the response.
type marketReplay struct {
	w   serveWorkload
	p   *pools
	tr  *tracer
	b   *market.Broker
	st  *store.Store
	mgr *store.Manager
	l   lane
	pc  *prefixCounter

	walBytes, walUpdates int64
}

func newMarketReplay(w serveWorkload, p *pools, dir string, tr *tracer) (*marketReplay, error) {
	b, st, mgr, err := bootLayers(w, dir, tr)
	if err != nil {
		return nil, fmt.Errorf("layered boot: %w", err)
	}
	return &marketReplay{w: w, p: p, tr: tr, b: b, st: st, mgr: mgr, pc: newPrefixCounter()}, nil
}

func (r *marketReplay) walBytesPerUpdate() float64 {
	if r.walUpdates == 0 {
		return 0
	}
	return float64(r.walBytes) / float64(r.walUpdates)
}

// decodeStrict decodes a request body the way the handlers do: unknown
// fields are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// encode renders a response body exactly as the handlers write it.
func encode(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v) // the response types always encode
	return buf.Bytes()
}

// traceCall wraps one layer call in a span.
func (r *marketReplay) traceCall(name string, f func()) {
	sp := r.tr.begin(name)
	f()
	r.tr.end(sp)
}

func (r *marketReplay) op(k int, o op, t *tally) {
	r.tr.setOp(k)
	root := r.tr.begin("client.op")
	defer r.tr.end(root)
	var err error
	switch o.Kind {
	case opQuote:
		var q relational.SelectQuery
		r.traceCall("serve.decode", func() { err = decodeStrict(r.p.quotes[o.body(len(r.p.quotes))], &q) })
		var quote market.Quote
		if err == nil {
			r.traceCall("market.quote", func() { quote, err = r.b.Quote(&q) })
		}
		if !t.check(err == nil, "replay op %d quote: %v", k, err) {
			return
		}
		var out []byte
		r.traceCall("serve.encode", func() { out = encode(quote) })
		r.pc.quoteBody(out)
	case opBatch:
		var qs []*relational.SelectQuery
		r.traceCall("serve.decode", func() { err = decodeStrict(r.p.batches[o.body(len(r.p.batches))], &qs) })
		var quotes []market.Quote
		if err == nil {
			r.traceCall("market.quote_batch", func() { quotes, err = r.b.QuoteBatchContext(context.Background(), qs) })
		}
		if !t.check(err == nil, "replay op %d batch: %v", k, err) {
			return
		}
		var out []byte
		r.traceCall("serve.encode", func() { out = encode(quotes) })
		r.pc.quoteBody(out)
	case opPurchase:
		var q relational.SelectQuery
		r.traceCall("serve.decode", func() { err = decodeStrict(r.p.quotes[o.body(len(r.p.quotes))], &q) })
		var ans *relational.Result
		var receipt market.Receipt
		if err == nil {
			r.traceCall("market.purchase", func() { ans, receipt, err = r.mgr.Purchase(&q, budget) })
		}
		if !t.check(err == nil, "replay op %d purchase: %v", k, err) {
			return
		}
		r.traceCall("serve.encode", func() { encode(map[string]any{"receipt": receipt, "answer": ans}) })
	case opUpdate:
		var body []byte
		if body, err = r.l.updateBody(o, r.p); err != nil {
			t.fail("replay op %d update body: %v", k, err)
			return
		}
		var changes []relational.CellChange
		r.traceCall("serve.decode", func() { err = decodeStrict(body, &changes) })
		var version uint64
		var norm []relational.CellChange
		var ust support.UpdateStats
		if err == nil {
			walBefore := r.st.Stats().WALBytes
			r.traceCall("market.update", func() { version, norm, ust, err = r.mgr.UpdateAssigned(changes) })
			// A snapshot every SnapshotEvery updates rotates the WAL right
			// after the append, and the update's bytes cannot be read off
			// the segment size; such updates are left out.
			if after := r.st.Stats().WALBytes; err == nil && after > walBefore {
				r.walBytes += after - walBefore
				r.walUpdates++
			}
		}
		if !t.check(err == nil, "replay op %d update: %v", k, err) {
			return
		}
		r.pc.update(ust.PlansDeferred)
		resp := map[string]any{"version": version, "changes": len(changes), "plans_deferred": ust.PlansDeferred}
		inserts := insertsOf(norm)
		if inserts != nil {
			resp["inserts"] = inserts
		}
		if due := dueTables(r.b.DB(), r.w); len(due) > 0 {
			var cst market.CompactStats
			r.traceCall("market.compact", func() { cst, err = r.mgr.Compact(due) })
			if t.check(err == nil, "replay op %d compaction: %v", k, err) {
				resp["compacted"] = cst
			}
		}
		resp["compactions"] = r.b.Compactions()
		r.traceCall("serve.encode", func() { encode(resp) })
		r.l.learn(inserts, r.b.Compactions())
	}
}

// insertsOf maps each insert of a normalized batch to its assigned slot,
// per table in batch order, as /update reports them.
func insertsOf(norm []relational.CellChange) map[string][]int {
	var out map[string][]int
	for _, c := range norm {
		if c.Op == relational.OpRowInsert {
			if out == nil {
				out = map[string][]int{}
			}
			out[c.Table] = append(out[c.Table], c.Row)
		}
	}
	return out
}

// dueTables is the server's auto-compaction trigger: tables with at least
// the workload's minimum slots whose tombstone share reached its
// threshold.
func dueTables(db *relational.Database, w serveWorkload) []string {
	var due []string
	for _, ts := range db.TableStats() {
		if ts.Slots >= w.compactMinRows && float64(ts.Tombstones) >= w.compactThreshold*float64(ts.Slots) {
			due = append(due, ts.Table)
		}
	}
	return due
}

// layerReplay is what replaying the prefix below the market did.
type layerReplay struct {
	compactions          uint64
	rebased, invalidated int
}

// replayLayers replays the prefix on a support set the benchmark builds
// itself: quotes and purchases as support.ConflictSet (and, for
// purchases, the answer's relational evaluation), updates as
// relational.Database.Apply, support.Set.Advance and an eager
// support.Set.Drain, and compaction epochs as relational compaction plus
// support.Set.Compact. Every corpus query is also compiled once with
// plan.Compile against the base snapshot.
func replayLayers(w serveWorkload, p *pools, seed int64, tr *tracer, t *tally) layerReplay {
	var out layerReplay
	cfg := w.config("")
	db := servedWorld(cfg)
	set, err := servedSupport(db, servedMarket(cfg))
	if err != nil {
		t.fail("layer replay: support: %v", err)
		return out
	}
	for _, q := range p.corpus {
		sp := tr.begin("plan.compile")
		_, err := plan.Compile(db, q)
		tr.end(sp)
		t.check(err == nil, "compile %s: %v", q.Name, err)
	}
	conflictSet := func(q *relational.SelectQuery) {
		sp := tr.begin("support.conflict_set")
		_, err := support.ConflictSet(set, q)
		tr.end(sp)
		t.check(err == nil, "conflict set %s: %v", q.Name, err)
	}
	var l lane
	for k := 0; k < countPrefix; k++ {
		o := opAt(seed, w.mix, k)
		tr.setOp(k)
		root := tr.begin("client.op")
		switch o.Kind {
		case opQuote:
			conflictSet(p.corpus[o.body(len(p.quotes))])
		case opBatch:
			for _, q := range p.batchQueries[o.body(len(p.batches))] {
				conflictSet(q)
			}
		case opPurchase:
			q := p.corpus[o.body(len(p.quotes))]
			conflictSet(q)
			sp := tr.begin("relational.eval")
			_, err := q.Eval(db)
			tr.end(sp)
			t.check(err == nil, "eval %s: %v", q.Name, err)
		case opUpdate:
			body, err := l.updateBody(o, p)
			var changes []relational.CellChange
			if err == nil {
				err = json.Unmarshal(body, &changes)
			}
			sp := tr.begin("relational.apply")
			var norm []relational.CellChange
			var next *relational.Database
			if err == nil {
				if norm, err = db.NormalizeChanges(changes); err == nil {
					next, err = db.Apply(norm)
				}
			}
			tr.end(sp)
			if !t.check(err == nil, "layer replay op %d apply: %v", k, err) {
				tr.end(root)
				continue
			}
			sp = tr.begin("support.advance")
			nextSet, ust := set.Advance(next, norm)
			tr.end(sp)
			db, set = next, nextSet
			sp = tr.begin("support.drain")
			dst := set.Drain()
			tr.end(sp)
			out.rebased += ust.PlansRebased + dst.PlansRebased
			out.invalidated += ust.PlansInvalidated + dst.PlansInvalidated
			if due := dueTables(db, w); len(due) > 0 {
				sp = tr.begin("relational.compact")
				var compacted *relational.Database
				var maps *relational.SlotMap
				specs, err := db.PlanCompaction(due)
				if err == nil {
					compacted, maps, err = db.Compact(specs)
				}
				tr.end(sp)
				if t.check(err == nil, "layer replay op %d compaction: %v", k, err) {
					sp = tr.begin("support.compact")
					set, _ = set.Compact(compacted, maps)
					tr.end(sp)
					db = compacted
					out.compactions++
				}
			}
			l.learn(insertsOf(norm), out.compactions)
		}
		tr.end(root)
	}
	tr.setOp(-1)
	return out
}
