// Command perfbench is the repository's benchmark: it boots the durable
// market in-process, drives one serve workload over a single closed-loop
// HTTP connection, crashes and recovers it, then runs the paper's
// offline pricing roster, checks every output, and prints every metric
// by name and unit. Its last stdout line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a separate run replays the same seed through each
// layer's public functions with spans around every call and reports the
// per-layer metrics instead. See README.md for the workloads, metrics
// and measured spreads.
//
// Run it through perfbench/run.sh from the repository root.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// runArgs are the command line.
type runArgs struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string // build and run artifacts; the run's data lives in a subdirectory
}

func main() {
	var a runArgs
	var traceFlag int
	flag.StringVar(&a.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	flag.Int64Var(&a.seed, "seed", 1, "traffic seed")
	flag.IntVar(&a.seconds, "seconds", 20, "measured seconds of serve traffic")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run instead of the timed end-to-end run")
	flag.StringVar(&a.workdir, "workdir", ".bench_build", "directory for run data, traces and determinism counts")
	flag.Parse()
	a.trace = traceFlag == 1
	w, ok := findWorkload(a.workload)
	if !ok || a.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload %s -seed N -seconds N -trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	log.SetOutput(io.Discard) // the server logs every boot and recovery

	res, err := run(w, a)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printTable(os.Stdout, res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range serveWorkloads {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (serveWorkload, bool) {
	for _, w := range serveWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return serveWorkload{}, false
}

// run performs one timed or traced run in a private data directory and,
// when every other check passed, checks its counts against any earlier
// run of the same build at the same seed.
func run(w serveWorkload, a runArgs) (*result, error) {
	dir := filepath.Join(a.workdir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var t tally
	var m metrics
	var c runCounts
	var err error
	if a.trace {
		m, c, err = traced(w, a, dir, &t)
	} else {
		m, c, err = timed(w, a, dir, &t)
	}
	if err != nil {
		return nil, err
	}
	if t.failed == 0 {
		err = checkCounts(a.workdir, w.name, a.seed, c)
		t.check(err == nil, "%v", err)
	}
	for _, e := range t.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", e)
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// runCounts are everything the determinism self-check compares.
type runCounts struct {
	Serve  serveCounts  `json:"serve"`
	Roster rosterCounts `json:"roster"`
}

// checkCounts compares a run's counts with the first run of the same
// build recorded at the same workload and seed, timed or traced, and
// records them when none exists. Counts are kept per build: a change to
// the program may move them legitimately (a better cache, fewer LP
// solves, more revenue), and that is not a determinism failure.
func checkCounts(workdir, workload string, seed int64, c runCounts) error {
	id, err := buildID()
	if err != nil {
		return err
	}
	dir := filepath.Join(workdir, "counts", id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	got, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return os.WriteFile(path, got, 0o644)
	}
	if err != nil {
		return err
	}
	if string(want) != string(got) {
		return fmt.Errorf("determinism: counts at seed %d differ from the earlier run's (%s)\nnow:\n%s\nthen:\n%s", seed, path, got, want)
	}
	return nil
}

// buildID identifies the running binary by the SHA-256 of its file. Go
// builds are reproducible, so two builds of the same source and toolchain
// share an ID and any change to the program gets a new one.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// printTable prints the metrics by name and unit, one per line.
func printTable(out io.Writer, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %14.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
