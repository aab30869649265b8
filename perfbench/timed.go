package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/core"
)

// Run shape: the full sizes are what the benchmark measures; the tiny
// sizes only exercise the code in the package test.
type shape struct {
	setups     int // set-ups per compute run; setup_s is their median
	serveSetup int // set-ups per serve-mixed run
	minPasses  int // cold passes per compute run, at least
	warmN      int // warm requests per compute run
	// warmRate is the open-loop warm request rate, in requests per
	// second. It keeps the warm path well below saturation: at 500/s
	// dodge-sparse's 22 KB results built a backlog on a slow host and the
	// median grew 35-fold.
	warmRate   float64
	verifyCold int // cold jobs recomputed directly per serve run
	traceWarmN int // warm requests in a traced run
	probeCold  int // cold jobs in a traced run's service probe
}

func (b *bench) shape() shape {
	if b.tiny {
		return shape{setups: 2, serveSetup: 2, minPasses: 1, warmN: 40, warmRate: 200, verifyCold: 2, traceWarmN: 20, probeCold: 2}
	}
	return shape{setups: 5, serveSetup: 3, minPasses: 3, warmN: 1000, warmRate: 200, verifyCold: 8, traceWarmN: 1000, probeCold: 20}
}

func (b *bench) runTimed() error {
	if b.w.compute == nil {
		return b.timedServe()
	}
	return b.timedCompute()
}

// computeEnv is a compute workload's set-up: its specs, and the service
// its results are later read back from.
type computeEnv struct {
	specs []core.ExperimentSpec
	svc   *service
}

// setupCompute generates the specs, starts the service over a fresh
// store, and runs the workload's tiny variant once so lazy
// initialisation and heap growth happen before timing. The tiny variant
// always uses the default seed: its cost varies several-fold with the
// seed, and that would show in setup_s as noise.
func (b *bench) setupCompute() (*computeEnv, error) {
	specs, err := b.w.compute(b.seed, b.tiny)
	if err != nil {
		return nil, err
	}
	warm, err := b.w.compute(defaultSeed, true)
	if err != nil {
		return nil, err
	}
	svc, err := startService(b.tmp)
	if err != nil {
		return nil, err
	}
	for _, sp := range warm {
		if _, err := core.RunContext(context.Background(), sp, computeExec()); err != nil {
			svc.close()
			return nil, fmt.Errorf("warm-up %s: %w", sp.Name, err)
		}
	}
	return &computeEnv{specs: specs, svc: svc}, nil
}

// computeExec is what `rhx run` uses by default: one task per CPU.
func computeExec() core.Exec { return core.Exec{Parallelism: runtime.NumCPU()} }

// repeatSetup sets up n times, keeps the last environment and returns the
// median set-up time.
func repeatSetup[E any](n int, setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	var times []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, secs(time.Since(t0)))
		if i < n-1 {
			teardown(e)
		} else {
			env = e
		}
	}
	return env, median(times), nil
}

// pass runs every spec once, cold, as `rhx run` would, and returns the
// wall time, the results and their canonical bytes. Output checks happen
// after the clock stops.
func (b *bench) pass(specs []core.ExperimentSpec) (time.Duration, []*core.Result, [][]byte) {
	results := make([]*core.Result, len(specs))
	raws := make([][]byte, len(specs))
	errs := make([]error, len(specs))
	t0 := time.Now()
	for i, sp := range specs {
		span := b.trace.begin("core.run", 0)
		res, err := core.RunContext(context.Background(), sp, computeExec())
		b.trace.end(span)
		if err == nil {
			results[i] = res
			raws[i], err = res.Encode()
		}
		errs[i] = err
	}
	wall := time.Since(t0)
	for i, sp := range specs {
		if errs[i] != nil {
			b.gate.op(fmt.Errorf("%s: %w", sp.Name, errs[i]))
			continue
		}
		if b.corrupt != nil {
			raws[i] = b.corrupt(raws[i])
		}
		b.gate.result(sp, raws[i])
	}
	return wall, results, raws
}

// storeResults files the cold results in the service's store, so the
// warm stream can read them back.
func storeResults(env *computeEnv, results []*core.Result, raws [][]byte) ([]warmItem, error) {
	for i, sp := range env.specs {
		if results[i] == nil {
			return nil, fmt.Errorf("%s: no cold result to store", sp.Name)
		}
		if _, err := env.svc.st.Put(sp, results[i]); err != nil {
			return nil, err
		}
	}
	return warmItems(env.specs, raws)
}

// coldPasses runs cold passes until the next would end after budget
// seconds (at least minPasses). Each pass starts from a heap returned to
// the OS, as a fresh `rhx run` process would, and its resident set is
// sampled. It returns per-pass wall seconds and resident sets, and the
// first pass's results.
func (b *bench) coldPasses(specs []core.ExperimentSpec, budget float64, minPasses int) (walls []float64, mem []rss, results []*core.Result, raws [][]byte) {
	start := time.Now()
	for p := 0; p < minPasses || time.Since(start).Seconds()+median(walls) < budget; p++ {
		debug.FreeOSMemory()
		var wall time.Duration
		var res []*core.Result
		var raw [][]byte
		m := sampleRSS(func() { wall, res, raw = b.pass(specs) })
		walls = append(walls, secs(wall))
		mem = append(mem, m)
		if p == 0 {
			results, raws = res, raw
		}
	}
	return walls, mem, results, raws
}

func (b *bench) timedCompute() error {
	sh := b.shape()
	env, setup, err := repeatSetup(sh.setups, b.setupCompute, func(e *computeEnv) { e.svc.close() })
	if err != nil {
		return err
	}
	defer env.svc.close()

	warmSecs := float64(sh.warmN) / sh.warmRate
	walls, mem, results, raws := b.coldPasses(env.specs, b.seconds-warmSecs, sh.minPasses)
	items, err := storeResults(env, results, raws)
	if err != nil {
		return err
	}
	// Collect the passes' garbage now, so the warm stream is not charged
	// for it.
	runtime.GC()
	warm := env.svc.warmStream(context.Background(), b.gate, nil, items, sh.warmN, sh.warmRate)

	b.set("setup_s", setup, "s")
	b.set("wall_s", median(walls), "s")
	var p90s, maxes []float64
	for _, m := range mem {
		p90s, maxes = append(p90s, m.p90), append(maxes, m.max)
	}
	b.set("rss_p90_mb", median(p90s), "MB")
	b.set("warm_p50_ms", quantile(warm.lat, 0.5), "ms")
	b.note("setups=%d cold_passes=%d warm_requests=%d at %.0f/s", sh.setups, len(walls), len(warm.lat), sh.warmRate)
	b.note("wall_s per pass: %.3f", walls)
	b.note("rss_p90_mb per pass: %.1f; peak: %.1f", p90s, maxes)
	b.note("warm_ms p90=%.3f p99=%.3f", quantile(warm.lat, 0.9), quantile(warm.lat, 0.99))
	return nil
}

// serveEnv is serve-mixed's set-up: the service with the pre-warmed
// specs stored.
type serveEnv struct {
	svc   *service
	items []warmItem
	specs []core.ExperimentSpec
}

// setupServe starts the service over a fresh store and computes the
// pre-warm specs through it, checking each result.
func (b *bench) setupServe() (*serveEnv, error) {
	specs, err := prewarmSpecs(b.seed, b.tiny)
	if err != nil {
		return nil, err
	}
	svc, err := startService(b.tmp)
	if err != nil {
		return nil, err
	}
	c := svc.client()
	defer c.CloseIdleConnections()
	raws := make([][]byte, len(specs))
	for i, sp := range specs {
		raw, err := svc.submitWait(c, sp)
		if err != nil {
			svc.close()
			return nil, err
		}
		b.gate.result(sp, raw)
		raws[i] = raw
	}
	items, err := warmItems(specs, raws)
	if err != nil {
		svc.close()
		return nil, err
	}
	return &serveEnv{svc: svc, items: items, specs: specs}, nil
}

// load runs the warm open-loop stream and the cold closed-loop stream
// side by side for d. Cold spec seeds continue from firstCold, so no
// cold spec repeats within a run.
func (b *bench) load(env *serveEnv, d time.Duration, firstCold int) (warm, cold streamStats, jobs []coldJob) {
	sh := b.shape()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	n := int(sh.warmRate * d.Seconds())
	done := make(chan struct{})
	go func() {
		defer close(done)
		warm = env.svc.warmStream(ctx, b.gate, b.trace, env.items, n, sh.warmRate)
	}()
	cold, jobs = env.svc.coldLoop(ctx, b.gate, b.trace, func(i int) (core.ExperimentSpec, error) {
		return coldSpec(b.seed, firstCold+i)
	})
	<-done
	return warm, cold, jobs
}

func (b *bench) timedServe() error {
	sh := b.shape()
	env, setup, err := repeatSetup(sh.serveSetup, b.setupServe, func(e *serveEnv) { e.svc.close() })
	if err != nil {
		return err
	}
	defer env.svc.close()
	debug.FreeOSMemory()
	var warm, cold streamStats
	var jobs []coldJob
	mem := sampleRSS(func() { warm, cold, jobs = b.load(env, time.Duration(b.seconds*float64(time.Second)), 0) })
	verifyCold(b.gate, nil, jobs, sh.verifyCold)

	b.set("setup_s", setup, "s")
	b.set("wall_s", quantile(cold.lat, 0.5)/1000, "s")
	b.set("rss_p90_mb", mem.p90, "MB")
	b.set("warm_p50_ms", quantile(warm.lat, 0.5), "ms")
	b.note("setups=%d warm_requests=%d at %.0f/s cold_jobs=%d cold_verified=%d",
		sh.serveSetup, len(warm.lat), sh.warmRate, len(cold.lat), min(sh.verifyCold, len(jobs)))
	b.note("rss peak=%.1f MB", mem.max)
	b.note("cold_ms p90=%.3f; warm_ms p90=%.3f p99=%.3f; generator_late_ms p99=%.3f",
		quantile(cold.lat, 0.9), quantile(warm.lat, 0.9), quantile(warm.lat, 0.99), quantile(warm.late, 0.99))
	return nil
}

// rss summarises the resident set sampled during one phase.
type rss struct{ p90, max float64 }

// sampleRSS runs fn while sampling the process's resident set every
// 5 ms. The p90 over time is what the metric reports: it follows the
// working set at its high-water mark, while the single largest sample
// can be a brief spike that some seeds have and others do not.
func sampleRSS(fn func()) rss {
	stop := make(chan struct{})
	out := make(chan rss)
	go func() {
		samples := []float64{rssMB()}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				samples = append(samples, rssMB())
			case <-stop:
				samples = append(samples, rssMB())
				out <- rss{p90: quantile(samples, 0.9), max: quantile(samples, 1)}
				return
			}
		}
	}()
	fn()
	close(stop)
	return <-out
}

// rssMB reads the current resident set from /proc/self/statm.
func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	if _, err := fmt.Sscanf(string(data), "%d %d", &size, &resident); err != nil {
		return 0
	}
	return float64(resident*int64(os.Getpagesize())) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
