package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/store"
)

// span is one timed call into a layer, made from the benchmark's side of
// the boundary. Parent 0 is the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how the timed run uses it.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: ms(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = ms(time.Since(t.t0))
}

// durations returns the durations in ms of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// timeSpan runs fn inside a span and returns its duration.
func (t *tracer) timeSpan(name string, fn func() error) (time.Duration, error) {
	id := t.begin(name, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	t.end(id)
	return d, err
}

// profiled runs fn under the CPU profiler and the runtime's GC counters,
// and records the per-package CPU shares and GC metrics.
func (b *bench) profiled(fn func()) error {
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(samples)
	alloc0, cycles0 := samples[0].Value.Uint64(), samples[1].Value.Uint64()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	fn()
	pprof.StopCPUProfile()
	metrics.Read(samples)
	shares, n, err := profileShares(prof.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, layer := range profileBuckets {
		b.set(layer+".cpu_frac", shares[layer], "frac")
	}
	b.set("gc.alloc_mb", float64(samples[0].Value.Uint64()-alloc0)/(1<<20), "MB")
	b.set("gc.cycles", float64(samples[1].Value.Uint64()-cycles0), "count")
	b.note("cpu_profile_samples=%d", n)
	return nil
}

// parEff is process CPU time over wall time times GOMAXPROCS.
func parEff(cpu, wall time.Duration) float64 {
	return cpu.Seconds() / (wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

func (b *bench) runTraced() error {
	if b.w.compute == nil {
		return b.tracedServe()
	}
	return b.tracedCompute()
}

// tracedCompute: one untraced pass, one profiled pass, a short warm
// stream, then the layer probes.
func (b *bench) tracedCompute() error {
	sh := b.shape()
	env, err := b.setupCompute()
	if err != nil {
		return err
	}
	defer env.svc.close()

	debug.FreeOSMemory()
	c0 := cpuTime()
	wallU, _, _ := b.pass(env.specs)
	b.set("engine.par_eff", parEff(cpuTime()-c0, wallU), "ratio")

	var wallT time.Duration
	var results []*core.Result
	var raws [][]byte
	debug.FreeOSMemory()
	if err := b.profiled(func() { wallT, results, raws = b.pass(env.specs) }); err != nil {
		return err
	}
	b.set("bench.trace_overhead_frac", secs(wallT)/secs(wallU), "ratio")
	runs := b.trace.durations("core.run")
	b.set("core.run_s", sum(runs[len(runs)-len(env.specs):])/1000, "s")
	b.set("core.cells", float64(cells(results)), "count")

	items, err := storeResults(env, results, raws)
	if err != nil {
		return err
	}
	warm := env.svc.warmStream(context.Background(), b.gate, b.trace, items, sh.traceWarmN, sh.warmRate)
	getUS, err := b.resultProbes(env.specs, results)
	if err != nil {
		return err
	}
	b.set("serve.warm_overhead_us", quantile(warm.lat, 0.5)*1000-getUS, "us")
	b.set("serve.generator_late_ms", quantile(warm.late, 0.99), "ms")
	b.set("warm_p99_ms", quantile(warm.lat, 0.99), "ms")

	// The service's cold path, probed with the same tiny specs
	// serve-mixed submits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cold, jobs := env.svc.coldLoop(ctx, b.gate, b.trace, func(i int) (core.ExperimentSpec, error) {
		if i == sh.probeCold-1 {
			cancel()
		}
		return coldSpec(b.seed, i)
	})
	direct := verifyCold(b.gate, b.trace, jobs, len(jobs))
	b.set("serve.cold_p90_ms", quantile(cold.lat, 0.9), "ms")
	b.set("serve.cold_queue_ms", quantile(cold.lat, 0.5)-median(direct), "ms")
	b.note("traced: warm_requests=%d cold_probe_jobs=%d", len(warm.lat), len(cold.lat))
	return b.layerProbes()
}

// tracedServe: half the load phase untraced, half profiled, then the
// layer probes.
func (b *bench) tracedServe() error {
	sh := b.shape()
	env, err := b.setupServe()
	if err != nil {
		return err
	}
	defer env.svc.close()
	half := time.Duration(b.seconds / 2 * float64(time.Second))

	c0 := cpuTime()
	t0 := time.Now()
	warm, coldU, jobs := b.load(env, half, 0)
	b.set("engine.par_eff", parEff(cpuTime()-c0, time.Since(t0)), "ratio")

	var coldT streamStats
	var jobsT []coldJob
	if err := b.profiled(func() { _, coldT, jobsT = b.load(env, half, 1<<20) }); err != nil {
		return err
	}
	b.set("bench.trace_overhead_frac", quantile(coldT.lat, 0.5)/quantile(coldU.lat, 0.5), "ratio")
	direct := verifyCold(b.gate, b.trace, append(jobs, jobsT...), sh.verifyCold)
	b.set("core.run_s", sum(direct)/1000, "s")
	b.set("core.cells", float64(cellsOf(jobs, sh.verifyCold)), "count")
	b.set("serve.cold_p90_ms", quantile(coldU.lat, 0.9), "ms")
	b.set("serve.cold_queue_ms", quantile(coldU.lat, 0.5)-median(direct), "ms")
	b.set("serve.generator_late_ms", quantile(warm.late, 0.99), "ms")

	results := make([]*core.Result, len(env.items))
	for i, it := range env.items {
		res, err := core.DecodeResult(it.want)
		if err != nil {
			return err
		}
		results[i] = res
	}
	getUS, err := b.resultProbes(env.specs, results)
	if err != nil {
		return err
	}
	b.set("serve.warm_overhead_us", quantile(warm.lat, 0.5)*1000-getUS, "us")
	b.set("warm_p99_ms", quantile(warm.lat, 0.99), "ms")
	b.note("traced: warm_requests=%d cold_jobs=%d+%d", len(warm.lat), len(coldU.lat), len(coldT.lat))
	return b.layerProbes()
}

// resultProbes times the core codec and the store on the workload's own
// specs and results, and returns the median store Get in microseconds.
func (b *bench) resultProbes(specs []core.ExperimentSpec, results []*core.Result) (float64, error) {
	const reps = 20
	dir := b.tmp + "/probe-store"
	st, err := store.Open(dir)
	if err != nil {
		return 0, err
	}
	var enc, dec, put, get []float64
	for i, sp := range specs {
		var raw []byte
		for r := 0; r < reps; r++ {
			d, err := b.trace.timeSpan("core.encode", func() (err error) { raw, err = results[i].Encode(); return })
			if err != nil {
				return 0, err
			}
			enc = append(enc, ms(d))
			d, err = b.trace.timeSpan("core.decode_result", func() error { _, err := core.DecodeResult(raw); return err })
			if err != nil {
				return 0, err
			}
			dec = append(dec, ms(d))
		}
		d, err := b.trace.timeSpan("store.put", func() error { _, err := st.Put(sp, results[i]); return err })
		if err != nil {
			return 0, err
		}
		put = append(put, ms(d))
		for r := 0; r < reps; r++ {
			d, err := b.trace.timeSpan("store.get", func() error {
				if _, got, ok := st.Get(sp); !ok || !bytes.Equal(got, raw) {
					return fmt.Errorf("store probe: %s did not read back", sp.Name)
				}
				return nil
			})
			b.gate.op(err)
			get = append(get, ms(d)*1000)
		}
	}
	b.set("core.encode_ms", median(enc), "ms")
	b.set("core.decode_result_ms", median(dec), "ms")
	b.set("store.put_ms", median(put), "ms")
	b.set("store.get_us", median(get), "us")
	return median(get), nil
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func cells(results []*core.Result) int {
	n := 0
	for _, r := range results {
		if r != nil {
			n += len(r.Cells)
		}
	}
	return n
}

func cellsOf(jobs []coldJob, k int) int {
	n := 0
	for i := 0; i < k && i < len(jobs); i++ {
		if res, err := core.DecodeResult(jobs[i].raw); err == nil {
			n += len(res.Cells)
		}
	}
	return n
}
