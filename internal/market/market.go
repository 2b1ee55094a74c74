// Package market is the broker layer that ties the whole system together:
// the role Qirana plays in the paper. A Broker owns a dataset, samples a
// support set, calibrates a revenue-maximizing pricing function from a
// forecast workload with buyer valuations, and then quotes and sells
// arbitrage-free prices for arbitrary incoming queries.
//
// Prices are arbitrage-free by construction (Theorem 1): every pricing the
// broker can be calibrated with — uniform bundle, item pricing, or XOS —
// is a monotone subadditive function of the query's conflict set.
//
// The broker is built for concurrent quote traffic. The calibrated pricing
// lives in an immutable snapshot swapped atomically, so Quote is a lock-free
// read even while Calibrate builds a replacement snapshot off to the side
// (hypergraph construction is read-only and runs on the support set's
// per-shard plan caches). The support set is sharded (Config.Shards):
// calibration schedules shard × query tiles over the worker pool and each
// quote fans its conflict-set computation out across shards. QuoteBatch
// fans a query batch across a bounded worker pool, and conflict sets are
// memoized in a bounded LRU cache keyed by the query's canonical SQL
// rendering, so repeated quotes for structurally identical queries skip
// conflict-set computation entirely.
//
// The seller's data is versioned and may evolve while the market serves:
// Broker.Update applies a batch of cell changes and atomically publishes a
// successor data snapshot (new database version, support set advanced
// lazily — cached plans fold the deferred change batches into one
// coalesced rebase on their first post-update use, or when the optional
// background drainer reaches them — and a fresh conflict cache). Quotes
// and receipts carry the version they were priced at; see docs/UPDATES.md
// for the full life of an update.
package market

import (
	"container/list"
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"querypricing/internal/engine"
	"querypricing/internal/hypergraph"
	"querypricing/internal/pricing"
	"querypricing/internal/relational"
	"querypricing/internal/support"
	"querypricing/internal/valuation"
)

// Algorithm names the pricing algorithm a broker calibrates with. Valid
// values are the names in the engine registry (engine.List).
type Algorithm string

// The built-in calibration algorithms (Section 5 of the paper).
const (
	UBP      Algorithm = "UBP"
	UIP      Algorithm = "UIP"
	LPIP     Algorithm = "LPIP"
	CIP      Algorithm = "CIP"
	Layering Algorithm = "Layering"
	XOS      Algorithm = "XOS" // max of LPIP and CIP item pricings
)

// Config configures a Broker.
type Config struct {
	// SupportSize is |S|, the number of neighboring instances to sample.
	SupportSize int
	// Seed drives support sampling (and any valuation generation).
	Seed int64
	// LPIPCandidates caps LPIP's threshold count (0 = all).
	LPIPCandidates int
	// CIPEpsilon is the capacity grid step for CIP (default 0.5).
	CIPEpsilon float64
	// CIPMaxCapacities caps the number of capacities CIP tries (0 = no cap).
	CIPMaxCapacities int
	// Workers bounds the QuoteBatch and Calibrate worker pools: quoting,
	// hypergraph construction and the LPIP/CIP candidate LPs
	// (0 = GOMAXPROCS, 1 = serial).
	Workers int
	// Shards partitions the support set: calibration schedules
	// shard × query tiles over the worker pool and each quote fans out
	// across shards concurrently. 0 picks GOMAXPROCS, negative forces a
	// single shard. Results are byte-identical at every shard count.
	Shards int
	// ConflictCacheSize bounds the conflict-set LRU cache: 0 picks the
	// default of 1024 entries, negative disables caching.
	ConflictCacheSize int
	// BackgroundDrain, when set, spawns a background goroutine after each
	// Update that eagerly folds the deferred plan rebases into the new
	// snapshot (support.Set.Drain), so an idle broker converges instead of
	// paying the coalesced rebase on each plan's next quote. At most one
	// drainer runs at a time; it re-checks for newer snapshots before
	// exiting.
	BackgroundDrain bool
}

// Quote is a priced offer for a query.
type Quote struct {
	Query        string
	Price        float64
	ConflictSize int
	// Informative is false when the query's conflict set is empty: the
	// query reveals nothing about the support set and is free.
	Informative bool
	// Version is the base-database version the conflict set was computed
	// against (see Broker.Update); a price is an offer on that exact
	// snapshot.
	Version uint64
}

// Receipt records a completed sale. Receipts pin the database version the
// price was computed against: an update that lands after a sale never
// re-prices it, and the sold conflict set remains the one the buyer's
// query had on the pinned snapshot (docs/UPDATES.md, "Sold conflict
// sets").
type Receipt struct {
	Query   string
	Price   float64
	When    time.Time
	Version uint64
}

// pricingSnapshot is an immutable calibrated pricing. Quote loads the
// current snapshot with one atomic read; Calibrate publishes a fresh one.
type pricingSnapshot struct {
	algorithm Algorithm
	result    pricing.Result
	revenue   float64 // forecast revenue at calibration time
}

// marketState is the broker's immutable data snapshot: the versioned base
// database, the support set interpreted against it, and the conflict-set
// cache whose entries are valid exactly for that version. Update publishes
// a successor state with one atomic swap; in-flight quotes that loaded the
// previous state finish consistently against it.
type marketState struct {
	version uint64
	db      *relational.Database
	set     *support.Set
	cache   *conflictCache // nil when caching is disabled
}

// Broker sells query answers over a dataset at arbitrage-free prices.
// It is safe for concurrent use: quoting never blocks on recalibration or
// on live data updates.
type Broker struct {
	cfg Config

	// state holds the current data snapshot (database, support set,
	// conflict cache); Update swaps in a successor atomically.
	state atomic.Pointer[marketState]

	// snap holds the current calibrated pricing; nil until Calibrate
	// succeeds for the first time (every quote is zero until then).
	snap atomic.Pointer[pricingSnapshot]

	// calMu serializes calibrations and updates (quotes are not blocked
	// by it).
	calMu sync.Mutex

	// draining guards the single background drainer goroutine
	// (Config.BackgroundDrain).
	draining atomic.Bool

	// compactions counts compaction epochs over the broker's lifetime
	// (carried across restarts via the snapshot, like the sales log).
	compactions atomic.Uint64

	// plansDeferred accumulates UpdateStats.PlansDeferred across every
	// Update: the running total of plan rebases the broker has deferred
	// to first use instead of paying at update time (see PlanStats).
	plansDeferred atomic.Int64

	// cacheHits/cacheMisses count conflict-cache outcomes cumulatively
	// over the broker's lifetime. They live here rather than on the cache
	// because each cache is retired wholesale with its marketState on
	// Update — per-state counters would reset on every version bump.
	// Joining an in-flight computation counts as a hit (the caller did
	// not pay for the computation).
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64

	salesMu sync.Mutex
	sales   []Receipt
	revenue float64
}

// NewBroker samples a support set over the dataset and returns an
// uncalibrated broker (every quote is zero until Calibrate is called).
func NewBroker(db *relational.Database, cfg Config) (*Broker, error) {
	if cfg.SupportSize <= 0 {
		cfg.SupportSize = 1000
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	} else if cfg.Shards < 0 {
		cfg.Shards = 1
	}
	set, err := support.Generate(db, support.GenOptions{Size: cfg.SupportSize, Seed: cfg.Seed, Shards: cfg.Shards})
	if err != nil {
		return nil, fmt.Errorf("market: sampling support: %w", err)
	}
	return newBroker(db, set, cfg), nil
}

// NewBrokerWithSupport returns a broker over a caller-supplied support set
// instead of sampling one: targeted supports (support.TargetedGenerate),
// hand-built neighbor sets, or a set carried over from another broker. The
// set must be rooted at db (set.DB == db); its own shard count governs
// execution, and Config.Shards is overwritten with the set's effective
// count so everything downstream (engine.Options.Shards) reports the
// truth. Like NewBroker, the returned broker is uncalibrated.
func NewBrokerWithSupport(db *relational.Database, set *support.Set, cfg Config) (*Broker, error) {
	if set == nil {
		return nil, fmt.Errorf("market: nil support set")
	}
	if set.DB != db {
		return nil, fmt.Errorf("market: support set is rooted at a different database")
	}
	cfg.Shards = set.NumShards()
	return newBroker(db, set, cfg), nil
}

func newBroker(db *relational.Database, set *support.Set, cfg Config) *Broker {
	b := &Broker{cfg: cfg}
	st := &marketState{version: db.Version(), db: db, set: set, cache: b.newCache()}
	b.state.Store(st)
	return b
}

// newCache builds a conflict cache per the broker's config (nil when
// disabled).
func (b *Broker) newCache() *conflictCache {
	if b.cfg.ConflictCacheSize < 0 {
		return nil
	}
	size := b.cfg.ConflictCacheSize
	if size == 0 {
		size = 1024
	}
	return newConflictCache(size)
}

// SupportSize returns |S|.
func (b *Broker) SupportSize() int { return b.state.Load().set.Size() }

// Version returns the version of the base-database snapshot quotes are
// currently priced against: the database's version at construction,
// incremented by one per Update.
func (b *Broker) Version() uint64 { return b.state.Load().version }

// DB returns the current base-database snapshot. The returned database is
// immutable — updates publish successors via Apply — so callers may
// evaluate queries against it freely.
func (b *Broker) DB() *relational.Database { return b.state.Load().db }

// Update applies a batch of changes — cell updates, row inserts, row
// deletes (relational.ChangeOp) — to the seller's database and
// publishes the successor pricing snapshot with one atomic swap: a new
// database version (relational.Database.Apply), the support set advanced
// onto it lazily (cached plans carried over with their delta maintenance
// deferred — each is rebased on its first post-update quote, all pending
// batches coalesced into one pass; support.Set.Advance), and a fresh
// conflict-set cache (entries are keyed by canonical SQL only, so none may
// survive a version bump). Update latency is therefore independent of how
// many plans are cached; set Config.BackgroundDrain (or call DrainPlans)
// to fold the deferred rebases eagerly. Concurrent quotes that loaded the
// previous state finish against it — prices remain internally consistent
// offers on the snapshot they were computed from, and receipts pin that
// version.
//
// The calibrated pricing function is retained: its item weights attach to
// support neighbors, which an update never re-homes, so post-update quotes
// re-price through their (possibly changed) conflict sets immediately.
// Recalibrating against the new snapshot is worthwhile after updates large
// enough to shift the forecast workload's conflict structure.
//
// Updates and calibrations serialize with each other; quoting never blocks
// on either. It returns the new version, along with statistics on how much
// compiled plan state was carried over.
func (b *Broker) Update(changes []relational.CellChange) (uint64, support.UpdateStats, error) {
	v, _, stats, err := b.UpdateAssigned(changes)
	return v, stats, err
}

// UpdateAssigned is Update, additionally returning the normalized batch:
// every insert's Row holds the slot Apply assigned it (the batch is
// returned unchanged when it carries no inserts). Serving layers report
// those assignments to clients, because a client that wants to delete a
// row it inserted must name its slot.
func (b *Broker) UpdateAssigned(changes []relational.CellChange) (uint64, []relational.CellChange, support.UpdateStats, error) {
	b.calMu.Lock()
	defer b.calMu.Unlock()
	st := b.state.Load()
	// Normalize first so every insert names the slot Apply assigns it;
	// the engine layers (plan rebasing, pooled join indexes) consume
	// slot-addressed batches only.
	norm, err := st.db.NormalizeChanges(changes)
	if err != nil {
		return 0, nil, support.UpdateStats{}, fmt.Errorf("market: update: %w", err)
	}
	newDB, err := st.db.Apply(norm)
	if err != nil {
		return 0, nil, support.UpdateStats{}, fmt.Errorf("market: update: %w", err)
	}
	newSet, stats := st.set.Advance(newDB, norm)
	b.plansDeferred.Add(int64(stats.PlansDeferred))
	b.state.Store(&marketState{
		version: newDB.Version(),
		db:      newDB,
		set:     newSet,
		cache:   b.newCache(),
	})
	if b.cfg.BackgroundDrain && b.draining.CompareAndSwap(false, true) {
		go func() {
			for {
				cur := b.state.Load()
				cur.set.Drain()
				if b.state.Load() != cur {
					continue // a newer snapshot appeared mid-drain
				}
				b.draining.Store(false)
				// Close the lost-wakeup window: an Update that landed
				// between the state check above and the Store saw
				// draining=true and did not spawn a drainer. If the state
				// moved, try to become the drainer again; if another
				// goroutine already did, we're done either way.
				if b.state.Load() == cur || !b.draining.CompareAndSwap(false, true) {
					return
				}
			}
		}()
	}
	return newDB.Version(), norm, stats, nil
}

// PlanStats is the broker's plan-cache maintenance snapshot: per-shard
// cached/stale plan counts and pending-log depths for the current data
// snapshot, their totals, and the cumulative number of plan rebases
// deferred across every Update since the broker was built.
type PlanStats struct {
	Plans          int                      `json:"plans"`
	Stale          int                      `json:"stale"`
	PendingBatches int                      `json:"pending_batches"`
	DeferredTotal  int64                    `json:"deferred_total"`
	Shards         []support.ShardPlanStats `json:"shards"`
}

// PlanStats reports the current snapshot's plan-cache state (see the
// PlanStats type). Counts are point-in-time: concurrent quotes and the
// background drainer fold stale plans forward as they run.
func (b *Broker) PlanStats() PlanStats {
	shards := b.state.Load().set.PlanStats()
	out := PlanStats{Shards: shards, DeferredTotal: b.plansDeferred.Load()}
	for _, s := range shards {
		out.Plans += s.Plans
		out.Stale += s.Stale
		out.PendingBatches += s.Pending
	}
	return out
}

// DrainPlans synchronously folds every deferred update batch into the
// current snapshot's cached plans (support.Set.Drain), returning how many
// plans were rebased or recompiled. Quotes may run concurrently; a later
// Update may still leave new deferred batches behind.
func (b *Broker) DrainPlans() support.UpdateStats {
	return b.state.Load().set.Drain()
}

// engineOptions maps broker configuration onto the shared engine knob set.
func (b *Broker) engineOptions() engine.Options {
	return engine.Options{
		LPIPMaxCandidates: b.cfg.LPIPCandidates,
		CIPEpsilon:        b.cfg.CIPEpsilon,
		CIPMaxCapacities:  b.cfg.CIPMaxCapacities,
		Shards:            b.cfg.Shards,
		Workers:           b.cfg.Workers,
	}
}

// Calibrate fits the chosen pricing algorithm to a forecast workload: the
// queries a market study predicts buyers will ask, with their valuations
// drawn from the given model (Section 3.3: "valuations can be found by
// performing market research"). It returns the revenue the fitted pricing
// would extract on the forecast.
//
// Calibration runs entirely off to the side — hypergraph construction is
// read-only, probing cached query plans with each neighbor's deltas over a
// worker pool — and publishes the new pricing with one atomic pointer
// swap, so concurrent Quote calls keep serving the previous pricing until
// the instant the new one is ready.
func (b *Broker) Calibrate(queries []*relational.SelectQuery, model valuation.Model, algo Algorithm) (float64, error) {
	alg, err := engine.Get(string(algo))
	if err != nil {
		return 0, fmt.Errorf("market: %w", err)
	}

	b.calMu.Lock()
	defer b.calMu.Unlock()

	// BuildHypergraph is read-only (conflict sets come from cached plans
	// probed with each neighbor's deltas), so it runs directly on the
	// broker's support set — no database clone — and the plans it compiles
	// stay in the set's cache where concurrent and future Quote calls
	// reuse them. Updates serialize on calMu, so the state cannot advance
	// mid-build.
	h, _, err := support.BuildHypergraph(b.state.Load().set, queries, support.BuildOptions{Workers: b.cfg.Workers})
	if err != nil {
		return 0, fmt.Errorf("market: building hypergraph: %w", err)
	}
	valuation.Apply(h, model, b.cfg.Seed+1)

	res, err := alg.Price(h, b.engineOptions())
	if err != nil {
		return 0, fmt.Errorf("market: calibrating %s: %w", algo, err)
	}
	b.snap.Store(&pricingSnapshot{algorithm: algo, result: res, revenue: res.Revenue})
	return res.Revenue, nil
}

// Algorithm returns the calibrated algorithm name, or "" if uncalibrated.
func (b *Broker) Algorithm() Algorithm {
	if snap := b.snap.Load(); snap != nil {
		return snap.algorithm
	}
	return ""
}

// Quote prices an arbitrary incoming query: it computes the query's
// conflict set against the support (a read-only computation, memoized per
// canonical query signature) and applies the current pricing snapshot to
// that bundle. It never blocks on other quotes, on recalibration, or on
// live updates; the returned quote carries the database version it was
// priced against.
func (b *Broker) Quote(q *relational.SelectQuery) (Quote, error) {
	return b.quoteWith(b.state.Load(), b.snap.Load(), q)
}

// quoteWith prices one query under a specific data state and pricing
// snapshot (nil = uncalibrated).
func (b *Broker) quoteWith(st *marketState, snap *pricingSnapshot, q *relational.SelectQuery) (Quote, error) {
	items, err := b.conflictSetOf(st, q)
	if err != nil {
		return Quote{}, err
	}
	return priceBundle(st, snap, q, items), nil
}

// QuoteBatch prices a batch of queries concurrently over a bounded worker
// pool (Config.Workers, default GOMAXPROCS). Each worker owns one
// contiguous chunk of the batch rather than pulling items from a shared
// channel: a worker keeps quoting against the same per-shard plan caches
// and pooled probe arenas without per-item dispatch overhead, and with a
// single worker (one core, or a one-query batch) the batch degenerates to
// exactly the serial quote loop. The returned quotes are index-aligned
// with the input; the first error aborts the batch. The data state and
// pricing snapshot are loaded once for the whole batch, so every quote in
// the response comes from the same calibrated pricing function on the same
// database version (and the batch as a whole stays arbitrage-free) even if
// a recalibration or an update lands mid-batch.
func (b *Broker) QuoteBatch(queries []*relational.SelectQuery) ([]Quote, error) {
	return b.QuoteBatchContext(context.Background(), queries)
}

// QuoteBatchContext is QuoteBatch under a context: each worker checks the
// context between quotes and the batch aborts with the context's error as
// soon as it is cancelled or its deadline passes. Serving layers derive
// per-request deadlines from it (cmd/marketd), so one slow batch cannot
// hold worker goroutines past its request's budget. A cancelled batch
// returns no quotes: partial batches would break the all-from-one-snapshot
// guarantee silently.
func (b *Broker) QuoteBatchContext(ctx context.Context, queries []*relational.SelectQuery) ([]Quote, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	st := b.state.Load()
	snap := b.snap.Load()
	workers := b.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}

	out := make([]Quote, len(queries))
	if workers == 1 {
		// Inline serial path: no goroutine, no synchronization.
		for i, q := range queries {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("market: batch cancelled at query %d: %w", i, err)
			}
			quote, err := b.quoteWith(st, snap, q)
			if err != nil {
				return nil, fmt.Errorf("market: batch query %d: %w", i, err)
			}
			out[i] = quote
		}
		return out, nil
	}

	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		failed   atomic.Bool
	)
	chunk := (len(queries) + workers - 1) / workers
	for lo := 0; lo < len(queries); lo += chunk {
		hi := lo + chunk
		if hi > len(queries) {
			hi = len(queries)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				if failed.Load() {
					return // abandon the chunk after a failure
				}
				if err := ctx.Err(); err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("market: batch cancelled at query %d: %w", i, err)
						failed.Store(true)
					})
					return
				}
				quote, err := b.quoteWith(st, snap, queries[i])
				if err != nil {
					errOnce.Do(func() {
						firstErr = fmt.Errorf("market: batch query %d: %w", i, err)
						failed.Store(true)
					})
					return
				}
				out[i] = quote
			}
		}(lo, hi)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// conflictSetOf computes (or recalls) CS(q, D) under one data state. The
// cache key is the query's canonical SQL rendering, which omits the query
// name: two structurally identical queries share one cache entry. The
// cache lives inside the state, so a version bump retires every entry with
// the state that produced it — a stale conflict set can never be served
// for a newer snapshot.
func (b *Broker) conflictSetOf(st *marketState, q *relational.SelectQuery) ([]int, error) {
	compute := func() ([]int, error) {
		items, err := support.ConflictSet(st.set, q)
		if err != nil {
			return nil, fmt.Errorf("market: conflict set of %q: %w", q.Name, err)
		}
		return items, nil
	}
	if st.cache == nil {
		return compute()
	}
	items, hit, err := st.cache.do(q.String(), compute)
	if hit {
		b.cacheHits.Add(1)
	} else {
		b.cacheMisses.Add(1)
	}
	return items, err
}

// CacheStats is the broker-lifetime conflict-cache accounting: hits and
// misses are cumulative across version bumps (unlike CacheLen, which
// reads the current state's cache), so serving layers can export them as
// monotone counters.
type CacheStats struct {
	Hits   uint64
	Misses uint64
	// Size is the number of memoized conflict sets in the current state.
	Size int
}

// CacheStats returns the cumulative conflict-cache counters.
func (b *Broker) CacheStats() CacheStats {
	return CacheStats{Hits: b.cacheHits.Load(), Misses: b.cacheMisses.Load(), Size: b.CacheLen()}
}

// priceBundle applies a pricing snapshot to a conflict set.
func priceBundle(st *marketState, snap *pricingSnapshot, q *relational.SelectQuery, items []int) Quote {
	price := 0.0
	if snap != nil {
		e := hypergraph.Edge{Items: items}
		if len(items) > 0 || snap.result.Weights != nil || snap.result.WeightSets != nil {
			price = snap.result.Price(&e)
		}
		if len(items) == 0 {
			// An uninformative query is free under any item pricing; under
			// a uniform bundle price the empty bundle formally costs the
			// flat price, but no rational broker charges for zero
			// information, so we quote zero.
			price = 0
		}
	}
	return Quote{
		Query:        q.Name,
		Price:        price,
		ConflictSize: len(items),
		Informative:  len(items) > 0,
		Version:      st.version,
	}
}

// Purchase quotes the query and, if the buyer's budget covers the price,
// executes it and returns the answer with a receipt. A budget below the
// price returns ErrBudget and no answer. The quote, the delivered answer
// and the receipt all come from one data state loaded at entry: a
// concurrent Update cannot make the buyer pay for one snapshot and
// receive another, and the receipt pins the version sold.
func (b *Broker) Purchase(q *relational.SelectQuery, budget float64) (*relational.Result, Receipt, error) {
	st := b.state.Load()
	quote, err := b.quoteWith(st, b.snap.Load(), q)
	if err != nil {
		return nil, Receipt{}, err
	}
	if quote.Price > budget {
		return nil, Receipt{}, fmt.Errorf("%w: price %.2f exceeds budget %.2f", ErrBudget, quote.Price, budget)
	}
	// Snapshots are immutable (updates publish successors; nothing ever
	// mutates st.db), so evaluation needs no lock.
	ans, err := q.Eval(st.db)
	if err != nil {
		return nil, Receipt{}, fmt.Errorf("market: executing %q: %w", q.Name, err)
	}
	r := Receipt{Query: q.Name, Price: quote.Price, When: time.Now(), Version: st.version}
	b.salesMu.Lock()
	b.sales = append(b.sales, r)
	b.revenue += quote.Price
	b.salesMu.Unlock()
	return ans, r, nil
}

// ErrBudget is returned by Purchase when the quoted price exceeds the
// buyer's budget.
var ErrBudget = fmt.Errorf("market: budget too low")

// Revenue returns the total revenue across completed sales.
func (b *Broker) Revenue() float64 {
	b.salesMu.Lock()
	defer b.salesMu.Unlock()
	return b.revenue
}

// Sales returns a copy of the sales log, oldest first.
func (b *Broker) Sales() []Receipt {
	b.salesMu.Lock()
	defer b.salesMu.Unlock()
	out := make([]Receipt, len(b.sales))
	copy(out, b.sales)
	sort.Slice(out, func(i, j int) bool { return out[i].When.Before(out[j].When) })
	return out
}

// conflictCache is a small mutex-guarded LRU mapping canonical query
// signatures to conflict sets, with in-flight deduplication: concurrent
// misses on the same key (a batch of structurally identical queries on a
// cold cache) share one computation instead of racing to repeat it.
// Entries are never stale — each cache belongs to exactly one marketState
// (one database version) and is retired wholesale with it on Update — so
// eviction exists only to bound memory.
type conflictCache struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*inflightCall
}

type cacheEntry struct {
	key   string
	items []int
}

// inflightCall is one in-progress conflict-set computation; followers wait
// on done and read items/err afterwards.
type inflightCall struct {
	done  chan struct{}
	items []int
	err   error
}

func newConflictCache(max int) *conflictCache {
	return &conflictCache{
		max:      max,
		entries:  make(map[string]*list.Element, max),
		lru:      list.New(),
		inflight: make(map[string]*inflightCall),
	}
}

// do returns the cached conflict set for key, joining an in-flight
// computation if one exists, and otherwise running compute itself and
// publishing the result. Failed computations are not cached. The hit
// result reports whether the caller avoided paying for the computation
// (a memoized entry or an in-flight join).
func (c *conflictCache) do(key string, compute func() ([]int, error)) (items []int, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		items := el.Value.(*cacheEntry).items
		c.mu.Unlock()
		return items, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-call.done
		return call.items, true, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	call.items, call.err = compute()

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.insertLocked(key, call.items)
	}
	c.mu.Unlock()
	close(call.done)
	return call.items, false, call.err
}

func (c *conflictCache) get(key string) ([]int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).items, true
}

func (c *conflictCache) put(key string, items []int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertLocked(key, items)
}

func (c *conflictCache) insertLocked(key string, items []int) {
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		el.Value.(*cacheEntry).items = items
		return
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, items: items})
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
	}
}

// inflightLen reports the number of in-progress computations (test hook).
func (c *conflictCache) inflightLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.inflight)
}

// CacheLen reports the number of memoized conflict sets in the current
// state (for tests and diagnostics); 0 when caching is disabled. A
// version bump starts from an empty cache.
func (b *Broker) CacheLen() int {
	cache := b.state.Load().cache
	if cache == nil {
		return 0
	}
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return cache.lru.Len()
}
