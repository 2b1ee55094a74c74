package main

// The traffic a serve workload sends is a pure function of the seed and
// the arrival index: op k's class, the pooled body it carries and whether
// an update arrival turns into a delete are each hashed from (seed, k), so
// the timed run, the traced replay and a rerun at the same seed see the
// same sequence regardless of timing.

type opKind uint8

const (
	opQuote opKind = iota
	opBatch
	opPurchase
	opUpdate
)

func (k opKind) String() string {
	return [...]string{"quote", "batch", "purchase", "update"}[k]
}

// mix holds the cumulative class thresholds, in opKind order.
type mix [4]float64

func mixOf(quote, batch, purchase, update float64) mix {
	return mix{quote, quote + batch, quote + batch + purchase, quote + batch + purchase + update}
}

var (
	// readMix is serve_read: quotes, batches and purchases only.
	readMix = mixOf(0.90, 0.05, 0.05, 0)
	// churnMix is serve_churn: one lane interleaving writes and reads.
	churnMix = mixOf(0.60, 0.05, 0.05, 0.30)
)

// deleteShare is the share of update arrivals that delete a row the lane
// inserted earlier (when it has one queued) instead of sending a pooled
// body.
const deleteShare = 0.5

// op is one arrival: its class, a hash that picks its body from the class
// pool, and, for an update, whether it tries a delete first.
type op struct {
	Kind      opKind
	Pick      uint64
	TryDelete bool
}

// body picks the op's pooled body index from a pool of size n.
func (o op) body(n int) int { return int(o.Pick % uint64(n)) }

// splitmix64 is the SplitMix64 finalizer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// opAt returns arrival k of the sequence the seed and mix define.
func opAt(seed int64, m mix, k int) op {
	h := splitmix64(uint64(seed)*0xd1b54a32d192ed03 ^ uint64(k))
	u := unit(h) * m[3]
	kind := opUpdate
	for i := opQuote; i < opUpdate; i++ {
		if u < m[i] {
			kind = i
			break
		}
	}
	pick := splitmix64(h)
	return op{
		Kind:      kind,
		Pick:      pick,
		TryDelete: kind == opUpdate && unit(splitmix64(pick)) < deleteShare,
	}
}
