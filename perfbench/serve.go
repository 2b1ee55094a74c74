package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"querypricing/internal/datagen"
	"querypricing/internal/loadgen"
	"querypricing/internal/market"
	"querypricing/internal/relational"
	"querypricing/internal/serve"
	"querypricing/internal/support"
	"querypricing/internal/workloads"
)

// The served market is marketd's default world at its default seed, at
// support 5000, so every seed prices the same catalogue and the seed
// varies only the traffic; the workloads differ in mix, pacing and
// compaction policy alone.
const (
	serveSupport = 5000
	serveSeed    = 1
	valK         = 100
	batchSize    = 8
	budget       = 1e18 // every purchase is affordable: the sale path, not the refusal path

	// countPrefix is how many ops the determinism counts cover: the timed
	// run snapshots them after exactly this many ops, and the traced
	// replay replays exactly this many.
	countPrefix = 4000
	// setupTrials fresh boots give setup_s as their median; restarts
	// recoveries from the crash image are the recovery gate (and, traced,
	// the restore timings).
	setupTrials = 3
	setupSlices = 4 // reference slices before each boot and after the last
	restarts    = 3
	nProbes     = 16
)

// serveWorkload is one serve traffic mix and the trigger policy it runs
// under.
type serveWorkload struct {
	name             string
	mix              mix
	compactThreshold float64
	compactMinRows   int
	wantCompactions  bool
	// rate paces the lane: op k is sent no earlier than k/rate seconds
	// into the measured time (0 sends each op as soon as the previous
	// one is answered).
	rate float64
}

var serveWorkloads = []serveWorkload{
	// marketd's own trigger defaults; the read mix never deletes, so
	// they never fire.
	{name: "serve_read", mix: readMix, compactThreshold: 0.3, compactMinRows: 4096},
	// pricebench -experiment compact's policy, so epochs fire during
	// the run. Paced at 400 ops/s, about 60% of what the lane reaches flat
	// out on a 2-vCPU VM: flat out, the background drainer saturates both
	// CPUs, falls behind whenever the host slows, and quotes pay the
	// backlog, so ten runs of one build spread 24-32% in quote p50.
	{name: "serve_churn", mix: churnMix, compactThreshold: 0.05, compactMinRows: 64, wantCompactions: true, rate: 400},
}

func (w serveWorkload) config(dir string) serve.Config {
	return serve.Config{
		DataDir:          dir,
		SnapshotEvery:    64,
		Algorithm:        string(market.LPIP),
		SupportSize:      serveSupport,
		Seed:             serveSeed,
		ValK:             valK,
		BackgroundDrain:  true,
		RequestTimeout:   10 * time.Second,
		MaxInflight:      128,
		CompactThreshold: w.compactThreshold,
		CompactMinRows:   w.compactMinRows,
	}
}

// serve.New's bootstrap market, restated for the layer-by-layer boot and
// recovery of the traced run, which must build exactly what serve.New
// builds. These three helpers are the benchmark's only copy of it.

// servedWorld is the dataset serve.New bootstraps on an empty directory.
func servedWorld(cfg serve.Config) *relational.Database {
	return datagen.World(datagen.WorldConfig{Countries: 239, Cities: 800, Seed: cfg.Seed})
}

// servedMarket is the broker configuration serve.New calibrates and
// restores with.
func servedMarket(cfg serve.Config) market.Config {
	return market.Config{
		SupportSize:     cfg.SupportSize,
		Shards:          cfg.Shards,
		Seed:            cfg.Seed,
		LPIPCandidates:  16,
		CIPEpsilon:      0.5,
		BackgroundDrain: cfg.BackgroundDrain,
	}
}

// servedSupport samples the support set market.NewBroker samples for mc
// (zero shards means one per CPU).
func servedSupport(db *relational.Database, mc market.Config) (*support.Set, error) {
	shards := mc.Shards
	if shards == 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	return support.Generate(db, support.GenOptions{Size: mc.SupportSize, Seed: mc.Seed, Shards: shards})
}

// purchasePath carries the budget query-escaped: "1e+18" would decode its
// '+' to a space.
var purchasePath = "/purchase?budget=" + url.QueryEscape(strconv.FormatFloat(budget, 'g', -1, 64))

// pools are the request bodies the op sequence draws from: loadgen's
// workload over the skewed corpus.
type pools struct {
	corpus       []*relational.SelectQuery
	quotes       [][]byte                    // one query per body; purchases use the same pool
	batches      [][]byte                    // up to batchSize queries per body
	batchQueries [][]*relational.SelectQuery // each batch body, decoded
	updates      [][]byte                    // half cell flips, half full-row inserts
}

func buildPools(db *relational.Database, seed int64) (*pools, error) {
	corpus := workloads.Skewed(db)
	w, err := loadgen.NewWorkload(db, corpus, loadgen.WorkloadConfig{Seed: seed, BatchSize: batchSize, IngestFraction: 0.5})
	if err != nil {
		return nil, err
	}
	p := &pools{corpus: corpus, quotes: w.Quotes, batches: w.Batches, updates: w.Updates}
	for _, b := range w.Batches {
		var qs []*relational.SelectQuery
		if err := json.Unmarshal(b, &qs); err != nil {
			return nil, fmt.Errorf("batch body: %w", err)
		}
		p.batchQueries = append(p.batchQueries, qs)
	}
	return p, nil
}

// updateResp is the part of the /update response body the lane reads.
type updateResp struct {
	Changes       int              `json:"changes"`
	PlansDeferred int              `json:"plans_deferred"`
	Inserts       map[string][]int `json:"inserts"`
	Compactions   uint64           `json:"compactions"`
}

// purchaseResp is the /purchase response body.
type purchaseResp struct {
	Receipt market.Receipt  `json:"receipt"`
	Answer  json.RawMessage `json:"answer"`
}

// lane is one closed-loop client's write state: the rows it inserted and
// may delete, oldest first, and the compaction count it last saw.
type lane struct {
	deletable []slotRef
	epochs    uint64
}

type slotRef struct {
	Table string
	Row   int
}

// updateBody returns arrival o's /update body: a delete of the lane's
// oldest inserted row when o tries a delete and one is queued, otherwise
// a pooled body.
func (l *lane) updateBody(o op, p *pools) ([]byte, error) {
	if o.TryDelete && len(l.deletable) > 0 {
		ref := l.deletable[0]
		l.deletable = l.deletable[1:]
		return json.Marshal([]relational.CellChange{relational.RowDelete(ref.Table, ref.Row)})
	}
	return p.updates[o.body(len(p.updates))], nil
}

// learn folds an acknowledged update into the lane. A compaction epoch
// renumbers every slot the lane knows, including the ones this very
// response reports (they were assigned before the epoch ran), so a rise
// in the epoch count empties the queue.
func (l *lane) learn(inserts map[string][]int, compactions uint64) {
	if compactions != l.epochs {
		l.deletable = l.deletable[:0]
		l.epochs = compactions
		return
	}
	tables := make([]string, 0, len(inserts))
	for t := range inserts {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	for _, t := range tables {
		for _, row := range inserts[t] {
			l.deletable = append(l.deletable, slotRef{Table: t, Row: row})
		}
	}
}

// serveCounts are the work counts of the first countPrefix ops. They are
// a function of the seed alone and must repeat exactly between runs, and
// between the HTTP run and the socket-free replay.
type serveCounts struct {
	Ops         int    `json:"ops"`
	CacheHits   uint64 `json:"conflict_cache_hits"`
	CacheMisses uint64 `json:"conflict_cache_misses"`
	Compactions uint64 `json:"compactions"`
	Updates     int    `json:"updates"`
	// QuoteHash hashes every /quote and /quote/batch response body in
	// order: the replay must produce the served bytes exactly.
	QuoteHash string `json:"quote_hash"`
}

// prefixCounter accumulates serveCounts over the op prefix. It also sums
// the plans each update deferred, which is left out of the counts: how
// many cached plans an update finds still stale depends on how far the
// background drainer got, which is timing.
type prefixCounter struct {
	updates  int
	deferred int
	quotes   hash.Hash
	done     bool
	counts   serveCounts
}

func newPrefixCounter() *prefixCounter { return &prefixCounter{quotes: sha256.New()} }

func (c *prefixCounter) quoteBody(b []byte) {
	if !c.done {
		c.quotes.Write(b)
	}
}

func (c *prefixCounter) update(deferred int) {
	if !c.done {
		c.updates++
		c.deferred += deferred
	}
}

// snapshot freezes the counts after the prefix's ops.
func (c *prefixCounter) snapshot(ops int, b *market.Broker) {
	cs := b.CacheStats()
	c.counts = serveCounts{
		Ops: ops, CacheHits: cs.Hits, CacheMisses: cs.Misses, Compactions: b.Compactions(),
		Updates: c.updates, QuoteHash: hex.EncodeToString(c.quotes.Sum(nil)),
	}
	c.done = true
}

// client is the one closed-loop HTTP connection the serve workloads
// drive: one outstanding request at a time.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}, base: base}
}

func (c *client) post(path string, body []byte) (int, []byte, error) {
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// traffic is what a closed-loop drive measured.
type traffic struct {
	quotes  samples // /quote round trips, ms
	writes  samples // /update and /purchase round trips, ms
	ops     int     // ops completed with a verified 2xx response
	elapsed time.Duration
	// busy is elapsed minus the time a paced lane slept waiting for its
	// next slot: the time the lane had a request outstanding (or was
	// preparing one).
	busy   time.Duration
	counts serveCounts
	// deferred sums plans_deferred over the prefix's updates.
	deferred int
}

// driveSpec bounds a drive: the op prefix and at least minDur of measured
// time. atPrefix, when set, runs once the op prefix is done. With sp set,
// the lane pauses every refEvery of measured time for one reference
// slice (phase "traffic").
type driveSpec struct {
	minDur   time.Duration
	atPrefix func()
	sp       *speed
}

const refEvery = 200 * time.Millisecond

// drive sends the seed's op sequence over one connection, each request
// after the previous response (and, for a paced workload, no earlier than
// its slot), and verifies every response. When the op prefix is done it
// pauses to take the counts and run atPrefix, and it pauses for the
// reference slices; pauses are left out of the measured time.
func drive(c *client, b *market.Broker, w serveWorkload, p *pools, seed int64, spec driveSpec, t *tally) traffic {
	var tr traffic
	var l lane
	pc := newPrefixCounter()
	start := time.Now()
	var paused, slept, nextRef time.Duration
	for k := 0; ; k++ {
		if k == countPrefix {
			t0 := time.Now()
			pc.snapshot(k, b)
			if spec.atPrefix != nil {
				spec.atPrefix()
			}
			paused += time.Since(t0)
		}
		el := time.Since(start) - paused
		if k >= countPrefix && el >= spec.minDur {
			break
		}
		if spec.sp != nil && el >= nextRef {
			t0 := time.Now()
			spec.sp.sample("traffic", 1)
			paused += time.Since(t0)
			nextRef = el + refEvery
			el = time.Since(start) - paused
		}
		if w.rate > 0 {
			if d := time.Duration(float64(k)/w.rate*float64(time.Second)) - el; d > 0 {
				t0 := time.Now()
				time.Sleep(d)
				slept += time.Since(t0)
			}
		}
		if issue(c, opAt(seed, w.mix, k), k, &l, p, pc, &tr, t) {
			tr.ops++
		}
	}
	tr.elapsed = time.Since(start) - paused
	tr.busy = tr.elapsed - slept
	tr.counts, tr.deferred = pc.counts, pc.deferred
	return tr
}

// issue sends op k and checks its response; it reports whether the op
// succeeded.
func issue(c *client, o op, k int, l *lane, p *pools, pc *prefixCounter, tr *traffic, t *tally) bool {
	switch o.Kind {
	case opQuote:
		t0 := time.Now()
		status, data, err := c.post("/quote", p.quotes[o.body(len(p.quotes))])
		d := time.Since(t0)
		var q market.Quote
		if !t.check(err == nil && status == http.StatusOK && json.Unmarshal(data, &q) == nil,
			"op %d quote: status %d, err %v", k, status, err) {
			return false
		}
		tr.quotes.addDur(d, time.Millisecond)
		pc.quoteBody(data)
	case opBatch:
		j := o.body(len(p.batches))
		status, data, err := c.post("/quote/batch", p.batches[j])
		var qs []market.Quote
		if !t.check(err == nil && status == http.StatusOK && json.Unmarshal(data, &qs) == nil && len(qs) == len(p.batchQueries[j]),
			"op %d batch: status %d, err %v", k, status, err) {
			return false
		}
		pc.quoteBody(data)
	case opPurchase:
		t0 := time.Now()
		status, data, err := c.post(purchasePath, p.quotes[o.body(len(p.quotes))])
		d := time.Since(t0)
		var r purchaseResp
		if !t.check(err == nil && status == http.StatusOK && json.Unmarshal(data, &r) == nil && r.Receipt.Query != "" && len(r.Answer) > 0,
			"op %d purchase: status %d, err %v", k, status, err) {
			return false
		}
		tr.writes.addDur(d, time.Millisecond)
	case opUpdate:
		body, err := l.updateBody(o, p)
		if err != nil {
			t.fail("op %d update body: %v", k, err)
			return false
		}
		t0 := time.Now()
		status, data, err := c.post("/update", body)
		d := time.Since(t0)
		var u updateResp
		if !t.check(err == nil && status == http.StatusOK && json.Unmarshal(data, &u) == nil && u.Changes == 1,
			"op %d update: status %d, err %v, body %.200s", k, status, err, data) {
			return false
		}
		tr.writes.addDur(d, time.Millisecond)
		l.learn(u.Inserts, u.Compactions)
		pc.update(u.PlansDeferred)
	}
	return true
}

// probeSet is the fixed set of queries whose quotes must survive a crash
// unchanged: the head of the corpus.
func probeSet(p *pools) []*relational.SelectQuery { return p.corpus[:nProbes] }

func quoteAll(b *market.Broker, qs []*relational.SelectQuery) ([]market.Quote, error) {
	out := make([]market.Quote, len(qs))
	for i, q := range qs {
		var err error
		if out[i], err = b.Quote(q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkProbes counts one check per probe: the quote after a restart must
// equal the one before the crash in every field.
func checkProbes(b *market.Broker, qs []*relational.SelectQuery, want []market.Quote, what string, t *tally) {
	got, err := quoteAll(b, qs)
	if err != nil {
		t.fail("%s: probe quotes: %v", what, err)
		return
	}
	for i := range qs {
		t.check(got[i] == want[i], "%s: probe %s quoted %+v, before the crash %+v", what, qs[i].Name, got[i], want[i])
	}
}

// boot runs serve.New on a data directory and times it. It collects
// first: a server boots in a fresh process, and without the collection
// whether a GC cycle lands inside the timed boot depends on the garbage
// earlier phases left (restart times were bimodal, 27-53 ms in one run).
func boot(w serveWorkload, dir string) (*serve.Server, time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	s, err := serve.New(w.config(dir))
	return s, time.Since(t0), err
}

// copyDir copies a data directory's regular files into a new directory,
// so that every restart recovers from identical bytes.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// workingSetHeapMB quotes the whole corpus, so that every query's plan is
// compiled and its conflict set memoized, drains deferred plan
// maintenance and reports the live heap.
func workingSetHeapMB(b *market.Broker, corpus []*relational.SelectQuery) (float64, error) {
	if _, err := quoteAll(b, corpus); err != nil {
		return 0, err
	}
	b.DrainPlans()
	return heapAfterGC(), nil
}

func describe(w serveWorkload, tr *traffic) string {
	return fmt.Sprintf("%s: %d ops in %.2fs (%.2fs busy), %d quotes, %d writes", w.name, tr.ops, tr.elapsed.Seconds(), tr.busy.Seconds(), tr.quotes.n(), tr.writes.n())
}
