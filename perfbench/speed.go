package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts by tens of percent over minutes (a fixed
// single-threaded loop timed 0.092-0.137 s within one minute), and every
// wall-clock metric of a run moves with it: ten runs of one build spread
// 29-37% in ops_per_s. So each measured phase (set-up, traffic, roster)
// is interleaved with short slices of a fixed reference kernel, built
// only from standard-library code, and every timing is reported at the
// reference speed: the raw value times refNominal over the phase's
// reference time (ops_per_s divided by it). The raw values go to
// standard error. The kernel runs while the lane is paused and the
// collector is held off, and touches none of the program's code or data,
// so a change to the program moves the scaled figures as it moves the
// raw ones; only the host's drift is divided out.

// refNominal is a typical reference time (see speed.ref) on the 2-vCPU
// development VM; it only sets the scale, so that scaled figures read
// close to raw ones.
const refNominal = 2800 * time.Microsecond

// refKernel is the reference work, in three parts. The core part probes
// a hash table over a fixed key set, walks a small permutation, sorts,
// and formats and hashes text: about 300 KB, all in a core's L2 cache.
// The memory part walks a 16 MB permutation and streams two 2 MB float
// vectors through a multiply-add, so it waits on the shared cache the way
// the roster's LPs and hypergraphs do. Their data lives outside the Go
// heap (mmap), so the kernel neither counts toward the heap the
// benchmark weighs nor paces the collector, and they allocate nothing.
// The round-trip part posts a small body to a standard-library echo
// handler over loopback HTTP: the socket, poller and goroutine hand-offs
// the serve traffic goes through, without any of the program's code.
type refKernel struct {
	table []uint64 // open addressing, refTable slots of key, value
	keys  []uint64
	perm  []int32
	sorts []uint64
	text  []byte
	big   []int32
	a, b  []float64
	sink  uint64

	echo   *httptest.Server
	client *http.Client
	body   []byte
}

const (
	refKeys   = 1 << 12
	refTable  = 1 << 13
	refPerm   = 1 << 14
	refWalk   = 1 << 16
	refBig    = 1 << 22
	refBigHop = 1 << 14
	refVec    = 1 << 18
	refTrips  = 40
)

func newRefKernel() (*refKernel, error) {
	r := rand.New(rand.NewSource(1))
	k := &refKernel{}
	var err error
	alloc := func(n int) []byte {
		if err != nil {
			return nil
		}
		var b []byte
		b, err = syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		return b
	}
	k.table = mmapSlice[uint64](alloc(refTable * 2 * 8))
	k.keys = mmapSlice[uint64](alloc(refKeys * 8))
	k.perm = mmapSlice[int32](alloc(refPerm * 4))
	k.sorts = mmapSlice[uint64](alloc(refKeys * 8))
	k.text = mmapSlice[byte](alloc(refKeys * 21))[:0]
	k.big = mmapSlice[int32](alloc(refBig * 4))
	k.a = mmapSlice[float64](alloc(refVec * 8))
	k.b = mmapSlice[float64](alloc(refVec * 8))
	if err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	for i := range k.keys {
		k.keys[i] = r.Uint64() | 1 // 0 marks an empty slot
		k.slot(k.keys[i])
	}
	cycle(r, k.perm)
	cycle(r, k.big)
	for i := range k.a {
		k.a[i], k.b[i] = r.Float64(), r.Float64()
	}

	k.echo = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		b, _ := io.ReadAll(req.Body)
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	}))
	k.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	k.body = []byte(`{"Name":"ref","Tables":["Country","City"],"Select":[{"Table":"Country","Col":"Name"},{"Table":"City","Col":"Population"}]}`)
	return k, nil
}

func mmapSlice[T any](b []byte) []T {
	if b == nil {
		return nil
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), len(b)/int(unsafe.Sizeof(zero)))
}

// cycle fills p with a random permutation forming one cycle, so that a
// walk from any slot visits all of them.
func cycle(r *rand.Rand, p []int32) {
	order := r.Perm(len(p))
	for i := range order {
		p[order[i]] = int32(order[(i+1)%len(p)])
	}
}

// slot finds (inserting if absent) key's value slot in the table.
func (k *refKernel) slot(key uint64) *uint64 {
	for i := key % refTable; ; i = (i + 1) % refTable {
		switch k.table[2*i] {
		case key:
			return &k.table[2*i+1]
		case 0:
			k.table[2*i] = key
			return &k.table[2*i+1]
		}
	}
}

func (k *refKernel) close() {
	k.client.CloseIdleConnections()
	k.echo.Close()
}

// core runs the core part once.
func (k *refKernel) core() {
	for i, key := range k.keys {
		*k.slot(key) += uint64(i)
	}
	j := int32(0)
	for i := 0; i < refWalk; i++ {
		j = k.perm[j]
	}
	copy(k.sorts, k.keys)
	slices.Sort(k.sorts)
	k.text = k.text[:0]
	for _, v := range k.sorts {
		k.text = strconv.AppendUint(k.text, v, 10)
		k.text = append(k.text, ',')
	}
	h := sha256.Sum256(k.text)
	k.sink += uint64(j) + uint64(h[0])
}

// memory runs the memory part once.
func (k *refKernel) memory() {
	j := int32(0)
	for i := 0; i < refBigHop; i++ {
		j = k.big[j]
	}
	s := 0.0
	for i := range k.a {
		k.b[i] += 1e-9 * k.a[i]
		s += k.a[i] * k.b[i]
	}
	k.sink += uint64(j) + uint64(s)
}

// trips runs the round-trip part once.
func (k *refKernel) trips() error {
	for i := 0; i < refTrips; i++ {
		resp, err := k.client.Post(k.echo.URL, "application/json", bytes.NewReader(k.body))
		if err != nil {
			return err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || n != int64(len(k.body)) {
			return fmt.Errorf("reference echo: %d bytes, %v", n, err)
		}
	}
	return nil
}

// slice runs each part once untimed, to bring its data back into the
// caches the program's work evicted (timed cold, the kernel would measure
// the program's cache footprint, not the host), then refReps times, and
// returns the wall time of each timed part.
func (k *refKernel) slice() (core, mem, rt time.Duration, err error) {
	runtime.LockOSThread()
	k.core()
	k.memory()
	t0 := time.Now()
	for i := 0; i < refReps; i++ {
		k.core()
	}
	t1 := time.Now()
	for i := 0; i < refReps; i++ {
		k.memory()
	}
	t2 := time.Now()
	runtime.UnlockOSThread()
	if err = k.trips(); err != nil {
		return
	}
	t3 := time.Now()
	err = k.trips()
	return t1.Sub(t0), t2.Sub(t1), time.Since(t3), err
}

const refReps = 2

// refParts names the kernel's parts, in the order slice returns them.
var refParts = [3]string{"core", "memory", "roundtrip"}

// speed collects reference slices by phase.
type speed struct {
	k      *refKernel
	slices map[string]*[3][]float64 // phase → seconds of each part, per slice
	err    error                    // the first failed echo round trip
}

func newSpeed() (*speed, error) {
	k, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	return &speed{k: k, slices: map[string]*[3][]float64{}}, nil
}

func (s *speed) close() { s.k.close() }

// sample times n slices for a phase; a nil speed (the traced run) takes
// none. It first waits for any collection in progress to finish its mark
// phase and holds off the next one until it is done: mark workers sharing
// the slice's core slowed it by about 25%, which would have made the
// kernel measure the program's allocation rate.
func (s *speed) sample(phase string, n int) {
	if s == nil {
		return
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ps := s.slices[phase]
	if ps == nil {
		ps = new([3][]float64)
		s.slices[phase] = ps
	}
	for i := 0; i < n; i++ {
		c, m, rt, err := s.k.slice()
		if err != nil && s.err == nil {
			s.err = err
		}
		for j, d := range [3]time.Duration{c, m, rt} {
			ps[j] = append(ps[j], d.Seconds())
		}
	}
}

// ref is the phase's reference time: the geometric mean over the three
// parts of avg over each part's slices, so that each part's speed weighs
// the same.
func (s *speed) ref(phase string, avg func([]float64) float64) float64 {
	g := 1.0
	for _, part := range s.slices[phase] {
		g *= avg(part)
	}
	return math.Cbrt(g)
}

// scale is refNominal over the phase's reference time: a duration
// measured in the phase times scale is that duration at the reference
// speed. A median (quote_p50_ms) is scaled by the median slice. A sum of
// time (a throughput, a whole boot or roster pass) is scaled by the mean
// slice: it pays for the host's stalls (steal) in proportion to how
// often they come, and so does the mean slice, while the median slice
// does not see them.
func (s *speed) scale(phase string, avg func([]float64) float64) float64 {
	return refNominal.Seconds() / s.ref(phase, avg)
}

func mean(vals []float64) float64 {
	t := 0.0
	for _, v := range vals {
		t += v
	}
	return t / float64(len(vals))
}

// describe is one line per phase: slices taken, both scales, and each
// part's median and mean.
func (s *speed) describe(w io.Writer) {
	for _, phase := range []string{"setup", "traffic", "roster"} {
		ps := s.slices[phase]
		fmt.Fprintf(w, "reference %s: %d slices, scale %.3f by median, %.3f by mean;", phase, len(ps[0]), s.scale(phase, median), s.scale(phase, mean))
		for j, part := range refParts {
			fmt.Fprintf(w, " %s %.3f/%.3f ms", part, median(ps[j])*1e3, mean(ps[j])*1e3)
		}
		fmt.Fprintln(w)
	}
}
