// Command perfbench is the repository benchmark. One invocation runs one
// workload for a fixed time, checks every output it produces, and prints
// each metric by name with its unit, then one JSON summary line:
//
//	bash perfbench/run.sh --workload char-medium --seed 1 --seconds 20 --trace 0
//
// --trace 0 is the timed run and reports the end-to-end metrics. --trace 1
// is a separate traced run: it profiles one pass of the workload, times
// calls into each internal layer from outside, and reports the per-layer
// metrics. Workloads and metrics are described in README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one invocation's state.
type bench struct {
	w       *workload
	seed    uint64
	seconds float64
	tiny    bool // small shapes and short phases, for the package test
	tmp     string
	gate    *gate
	trace   *tracer // nil in the timed run
	metrics map[string]metric
	notes   []string
	// corrupt, when set, rewrites every cold result before the gate
	// sees it; the package test uses it to prove the gate catches a
	// wrong byte.
	corrupt func([]byte) []byte
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: char-medium, fig10-dense, dodge-sparse or serve-mixed")
	seed := fs.Uint64("seed", defaultSeed, "benchmark seed; every spec seed derives from it")
	seconds := fs.Float64("seconds", 25, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed run")
	printDigests := fs.Bool("print-digests", false, "print the result digests of every spec at the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printDigests {
		if err := writeDigests(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		return 2
	}
	b, err := newBench(w, *seed, *seconds, *traced == 1, false)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.tmp)
	return b.execute(stdout, stderr)
}

func newBench(w *workload, seed uint64, seconds float64, traced, tiny bool) (*bench, error) {
	g, err := newGate(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, seed: seed, seconds: seconds, tiny: tiny, tmp: tmp, gate: g, metrics: map[string]metric{}}
	if traced {
		b.trace = newTracer()
	}
	return b, nil
}

// execute runs the workload, prints the report and returns the exit code.
func (b *bench) execute(stdout, stderr io.Writer) int {
	h := readHost()
	fmt.Fprintf(stdout, "host: %s\n", h)
	if h.loaded() {
		fmt.Fprintf(stderr, "perfbench: warning: load average %.2f at start on %d CPUs; timings will be inflated\n", h.load1, h.nproc)
	}
	pinned, err := b.w.pinned(b.seed, b.tiny)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.w.name, err)
		return 1
	}
	b.gate.requireCommitted(pinned...)
	if b.trace != nil {
		err = b.runTraced()
	} else {
		err = b.runTimed()
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.w.name, err)
		return 1
	}
	attempted, failed, errs := b.gate.counts()
	for _, e := range errs {
		fmt.Fprintln(stderr, "perfbench: wrong output:", e)
	}
	if b.trace != nil {
		if path, err := b.writeSpans(); err != nil {
			fmt.Fprintln(stderr, "perfbench: spans:", err)
		} else {
			fmt.Fprintln(stdout, "spans:", path)
		}
	}
	fmt.Fprintf(stdout, "workload: %s seed=%d trace=%v\n", b.w.name, b.seed, b.trace != nil)
	for _, n := range b.notes {
		fmt.Fprintln(stdout, "samples:", n)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		fmt.Fprintf(stdout, "metric: %-28s %16.6f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "operations: attempted=%d failed=%d\n", attempted, failed)
	out, err := json.Marshal(summary{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if failed > 0 || attempted == 0 {
		return 1
	}
	return 0
}

// writeSpans dumps the traced run's spans next to the build output.
func (b *bench) writeSpans() (string, error) {
	path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", b.w.name, b.seed))
	data, err := json.Marshal(b.trace.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// host facts recorded with every run.
type host struct {
	goVersion  string
	gomaxprocs int
	nproc      int
	load1      float64
	stealPct   float64
}

// loaded reports a one-minute load above 1.5x the CPU count. Back-to-back
// runs of this benchmark alone hold it near the CPU count, so more means
// something else is competing for the CPUs and every timing is inflated.
func (h host) loaded() bool { return h.load1 > 1.5*float64(h.nproc) }

func (h host) String() string {
	return fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d load1=%.2f steal=%.2f%%",
		h.goVersion, h.gomaxprocs, h.nproc, h.load1, h.stealPct)
}

// readHost reads the Go version, CPU counts, the one-minute load average
// and the CPU steal share over a quarter second. Facts the platform does
// not expose read as zero.
func readHost() host {
	h := host{goVersion: runtime.Version(), gomaxprocs: runtime.GOMAXPROCS(0), nproc: runtime.NumCPU()}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		fmt.Sscanf(string(b), "%f", &h.load1)
	}
	s0, ok0 := cpuStat()
	time.Sleep(250 * time.Millisecond)
	s1, ok1 := cpuStat()
	if ok0 && ok1 && s1[0] > s0[0] {
		h.stealPct = 100 * float64(s1[1]-s0[1]) / float64(s1[0]-s0[0])
	}
	return h
}

// cpuStat returns total and steal jiffies from /proc/stat.
func cpuStat() ([2]uint64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return [2]uint64{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return [2]uint64{}, false
	}
	var total, steal uint64
	for i, v := range f[1:] {
		var n uint64
		fmt.Sscanf(v, "%d", &n)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return [2]uint64{total, steal}, true
}
