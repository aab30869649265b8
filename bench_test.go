// Benchmarks regenerating every table and figure of the paper (one bench
// per artifact of EXPERIMENTS.md) plus design-choice ablations. Each
// iteration performs a complete, reduced-scale run of the corresponding
// experiment; `rhx run` and `rhx report` run the same code at full scale.
package rowhammer_test

import (
	"context"
	"testing"

	rowhammer "repro"
	"repro/internal/attack"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmodel"
	"repro/internal/memctrl"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// benchArtifact performs one complete run of an experiment through the
// registry (spec, run, artifact; the path `rhx run` takes) at seed 1.
func benchArtifact[A core.Artifact](b *testing.B, name string, params any) A {
	b.Helper()
	spec, err := core.NewSpec(name, 1, params)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Run(spec)
	if err != nil {
		b.Fatal(err)
	}
	art, err := res.Artifact()
	if err != nil {
		b.Fatal(err)
	}
	return art.(A)
}

// benchParams is the reduced characterization scale used per iteration.
func benchParams() core.CharParams {
	return core.CharParams{Scale: "tiny", Stride: 1, Chips: 1, Iterations: 2}
}

func BenchmarkTable1Population(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := benchArtifact[*core.Table1](b, "table1", benchParams()); len(t.Rows) == 0 {
			b.Fatal("empty census")
		}
	}
}

func BenchmarkTable2RowHammerable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if t := benchArtifact[*core.Table2](b, "table2", benchParams()); len(t.Rows) != 6 {
			b.Fatalf("got %d rows", len(t.Rows))
		}
	}
}

func BenchmarkTable3WorstPattern(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchArtifact[*core.Table3](b, "table3", benchParams())
	}
}

func BenchmarkTable4HCFirst(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := benchArtifact[*core.Table4](b, "table4", benchParams()); len(s.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkTable5Monotonicity(b *testing.B) {
	p := benchParams()
	p.Iterations = 4
	p.Stride = 4
	for i := 0; i < b.N; i++ {
		benchArtifact[*core.Table5](b, "table5", p)
	}
}

func BenchmarkFigure4Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchArtifact[*core.Figure4](b, "fig4", benchParams())
	}
}

func BenchmarkFigure5RateVsHC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchArtifact[*core.Figure5](b, "fig5", benchParams())
	}
}

func BenchmarkFigure6Spatial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchArtifact[*core.Figure6](b, "fig6", benchParams())
	}
}

func BenchmarkFigure7WordDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchArtifact[*core.Figure7](b, "fig7", benchParams())
	}
}

func BenchmarkFigure8HCFirstDist(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = benchArtifact[*core.Figure8](b, "fig8", benchParams()).Format()
	}
}

func BenchmarkFigure9ECC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchArtifact[*core.Figure9](b, "fig9", benchParams())
	}
}

func BenchmarkTables7and8Modules(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(benchArtifact[*core.ModuleTable](b, "table7", nil).Modules) != 110 {
			b.Fatal("DDR4 module count")
		}
		if len(benchArtifact[*core.ModuleTable](b, "table8", nil).Modules) != 60 {
			b.Fatal("DDR3 module count")
		}
	}
}

// benchFig10Params is one reduced Figure 10 sweep.
func benchFig10Params() core.Fig10Params {
	return core.Fig10Params{
		Mixes:        2,
		Cores:        4,
		TraceRecords: 1_000,
		WarmupInsts:  1_000,
		MeasureInsts: 8_000,
		HCSweep:      []int{100_000, 2_000, 256},
		Mechanisms: []core.MechanismID{
			core.MechPARA, core.MechIdeal, core.MechTWiCeIdeal,
			core.MechProHIT, core.MechMRLoc,
		},
	}
}

func BenchmarkFigure10Mitigations(b *testing.B) {
	p := benchFig10Params()
	for i := 0; i < b.N; i++ {
		if f := benchArtifact[*core.Figure10](b, "fig10", p); len(f.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

// benchAttackParams is one reduced attack-evaluation grid point.
func benchAttackParams() core.AttackParams {
	return core.AttackParams{
		Patterns:     []attack.Kind{attack.DoubleSided},
		Mechanisms:   []core.MechanismID{core.MechNone, core.MechIdeal},
		HCSweep:      []int{512},
		BenignCores:  2,
		TraceRecords: 800,
		MemCycles:    150_000,
		Rows:         1024,
	}
}

func BenchmarkAttackEval(b *testing.B) {
	p := benchAttackParams()
	for i := 0; i < b.N; i++ {
		if ev := benchArtifact[*core.AttackEval](b, "attack", p); len(ev.Points) != 2 {
			b.Fatalf("points = %d", len(ev.Points))
		}
	}
}

// BenchmarkHammerObserverACT measures the per-activation cost of the
// attack subsystem's damage accounting — the hook on the simulator's
// hottest path.
func BenchmarkHammerObserverACT(b *testing.B) {
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name: "obs-bench", Banks: 16, Rows: 4096, RowBits: 1024,
		HCFirst: 1 << 40, Rate150k: 5e-5, // unreachable: pure accounting cost
		WorstPattern: rowhammer.RowStripe0, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	chip.WriteAll(rowhammer.RowStripe0)
	obs := rowhammer.NewHammerObserver(chip)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs.OnACT(0, i&15, 100+(i&1), int64(i))
	}
}

func BenchmarkTable6Baseline(b *testing.B) {
	cfg := sim.Table6Config(1_000, 10_000)
	mix := trace.Mixes(1, 4, 1_000, 1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalIPC() <= 0 {
			b.Fatal("zero IPC")
		}
	}
}

// --- Engine stress shapes ---------------------------------------------------
//
// These two benchmarks are the sparse-trace shapes the event engine
// exists for — long idle stretches a cycle-by-cycle loop grinds through
// one cycle at a time. BenchmarkEngine in internal/sim times the event
// engine against that reference loop.

// BenchmarkPacedAttackSparse is a duty-cycle paced attacker running alone
// (the trr-dodge cell shape): burst of serialized flush+loads, then most
// of each tREFI idle in gap instructions.
func BenchmarkPacedAttackSparse(b *testing.B) {
	cfg := sim.Table6Config(0, 1)
	cfg.Geo.Rows = 1024
	cfg.T = rowhammer.DDR4Timing(cfg.Geo.Rows)
	cfg.WarmupInsts = 0
	cfg.MeasureInsts = 1 << 40
	cfg.MaxCPUCycles = 400_000 * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
	spec := attack.Spec{Kind: attack.DoubleSided, Records: 2_048, Seed: 5, DutyCycle: 0.25}
	tr, _, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: 0, Row: 512})
	if err != nil {
		b.Fatal(err)
	}
	mix := trace.Mix{Name: "paced", Traces: []*trace.Trace{tr}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		if res.Ctrl.Reads == 0 {
			b.Fatal("no attacker reads")
		}
	}
}

// BenchmarkSparseBenign is a single cache-resident core: almost every
// access hits the LLC and the memory system idles between refreshes.
func BenchmarkSparseBenign(b *testing.B) {
	cfg := sim.Table6Config(2_000, 40_000)
	p := trace.Profile{Name: "resident", MemFraction: 0.02, WorkingSetBytes: 1 << 20, Sequential: 0.9, WriteRatio: 0.2}
	mix := trace.Mix{Name: "sparse", Traces: []*trace.Trace{p.Generate(2_000, 9)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(cfg, mix)
		if err != nil {
			b.Fatal(err)
		}
		if res.TotalIPC() <= 0 {
			b.Fatal("zero IPC")
		}
	}
}

// --- Ablations --------------------------------------------------------------

func runAblatedSim(b *testing.B, mutate func(*sim.Config)) float64 {
	b.Helper()
	cfg := sim.Table6Config(1_000, 10_000)
	if mutate != nil {
		mutate(&cfg)
	}
	mix := trace.Mixes(1, 4, 1_000, 7)[0]
	res, err := sim.Run(cfg, mix)
	if err != nil {
		b.Fatal(err)
	}
	return res.TotalIPC()
}

func BenchmarkAblationFRFCFS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAblatedSim(b, nil)
	}
}

func BenchmarkAblationFCFSOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAblatedSim(b, func(c *sim.Config) { c.Ctrl.FCFSOnly = true })
	}
}

func BenchmarkAblationOpenRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAblatedSim(b, nil)
	}
}

func BenchmarkAblationClosedRow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAblatedSim(b, func(c *sim.Config) { c.Ctrl.ClosedRow = true })
	}
}

func benchPARAFanout(b *testing.B, fanout int) {
	cfg := sim.Table6Config(1_000, 10_000)
	mix := trace.Mixes(1, 4, 1_000, 7)[0]
	for i := 0; i < b.N; i++ {
		para, err := mitigation.NewPARA(cfg.MitigationParams(1_024, 1), cfg.T.TCKPS)
		if err != nil {
			b.Fatal(err)
		}
		para.WithFanout(fanout)
		run := cfg
		run.Mechanism = para
		if _, err := sim.Run(run, mix); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPARAFanout1(b *testing.B) { benchPARAFanout(b, 1) }
func BenchmarkAblationPARAFanout2(b *testing.B) { benchPARAFanout(b, 2) }

func benchBetaSweep(b *testing.B, beta float64) {
	cfg := faultmodel.Config{
		Name: "ablate-beta", Banks: 1, Rows: 256, RowBits: 1024,
		HCFirst: 10_000, Beta: beta,
		WorstPattern: faultmodel.RowStripe0, Seed: 11,
	}
	for i := 0; i < b.N; i++ {
		chip, err := faultmodel.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tester, err := rowhammer.NewTester(chip, 0)
		if err != nil {
			b.Fatal(err)
		}
		tester.WritePattern(chip.Config().WorstPattern)
		if _, err := tester.Sweep(100_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBeta2(b *testing.B) { benchBetaSweep(b, 2) }
func BenchmarkAblationBeta4(b *testing.B) { benchBetaSweep(b, 4) }

// BenchmarkAblationLazySampling measures the lazy vulnerable-cell path:
// chip construction plus a single-row test, which instantiates only the
// touched rows.
func BenchmarkAblationLazySampling(b *testing.B) {
	cfg := faultmodel.Config{
		Name: "lazy", Banks: 1, Rows: 8192, RowBits: 8192,
		HCFirst: 10_000, Rate150k: 5e-5,
		WorstPattern: faultmodel.RowStripe0, Seed: 5,
	}
	for i := 0; i < b.N; i++ {
		chip, err := faultmodel.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tester, err := rowhammer.NewTester(chip, 0)
		if err != nil {
			b.Fatal(err)
		}
		tester.WritePattern(chip.Config().WorstPattern)
		if _, err := tester.HammerDoubleSided(4096, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEagerSampling instantiates the full cell population
// up front (ForEachCell) before the same single-row test.
func BenchmarkAblationEagerSampling(b *testing.B) {
	cfg := faultmodel.Config{
		Name: "eager", Banks: 1, Rows: 8192, RowBits: 8192,
		HCFirst: 10_000, Rate150k: 5e-5,
		WorstPattern: faultmodel.RowStripe0, Seed: 5,
	}
	for i := 0; i < b.N; i++ {
		chip, err := faultmodel.NewChip(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		chip.ForEachCell(func(faultmodel.CellInfo) { n++ })
		tester, err := rowhammer.NewTester(chip, 0)
		if err != nil {
			b.Fatal(err)
		}
		tester.WritePattern(chip.Config().WorstPattern)
		if _, err := tester.HammerDoubleSided(4096, 100_000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Core micro-benchmarks --------------------------------------------------

func BenchmarkChipFullSweep(b *testing.B) {
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name: "bench", Banks: 1, Rows: 512, RowBits: 2048,
		HCFirst: 10_000, Rate150k: 1e-4,
		WorstPattern: rowhammer.RowStripe0, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	tester, err := rowhammer.NewTester(chip, 0)
	if err != nil {
		b.Fatal(err)
	}
	tester.WritePattern(rowhammer.RowStripe0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tester.Sweep(100_000, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerSaturated(b *testing.B) {
	geo := rowhammer.Table6Geometry()
	t := rowhammer.DDR4Timing(geo.Rows)
	for i := 0; i < b.N; i++ {
		ch, err := rowhammer.NewChannel(geo, t)
		if err != nil {
			b.Fatal(err)
		}
		ctrl, err := memctrl.New(memctrl.Table6Config(), ch, nil)
		if err != nil {
			b.Fatal(err)
		}
		mapper, err := rowhammer.NewAddressMapper(geo)
		if err != nil {
			b.Fatal(err)
		}
		addr := int64(0)
		for c := 0; c < 100_000; c++ {
			ctrl.EnqueueRead(0, mapper.LineAddress(addr), func() {})
			addr += 4096 // row-conflict heavy
			ctrl.Tick()
		}
	}
}

// llcBenchMem is a memory backend that completes every read at once and
// counts writebacks, so the LLC benchmarks time the cache alone.
type llcBenchMem struct{ writebacks int }

func (m *llcBenchMem) EnqueueRead(_ int, _ int64, onDone func()) bool {
	onDone()
	return true
}

func (m *llcBenchMem) EnqueueWrite(int, int64) { m.writebacks++ }

// BenchmarkLLCNew builds the Table 6 LLC, once per simulated core mix in
// Figure 10 and every other sim-driven study.
func BenchmarkLLCNew(b *testing.B) {
	mem := &llcBenchMem{}
	for i := 0; i < b.N; i++ {
		if _, err := cache.New(cache.Table6Config(), mem, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLLCAccess runs a fixed 64K-access stream from 4 cores through
// a fresh Table 6 LLC, one CPU tick per access: 70% go to a 256 KiB hot
// region that stays resident (hits), 30% to 32K lines folded onto 512
// sets (misses that evict), and a third of all accesses are writes, so
// evictions write back.
func BenchmarkLLCAccess(b *testing.B) {
	const n = 1 << 16
	type op struct {
		addr  int64
		write bool
	}
	ops := make([]op, n)
	x := uint64(1)
	for i := range ops {
		x = x*6364136223846793005 + 1442695040888963407
		r := x >> 33
		if r%10 < 7 {
			ops[i].addr = int64(r>>4%4096) * 64
		} else {
			set, tag := int64(r>>4%512), int64(r>>13%64)
			ops[i].addr = (tag<<15 | set) * 64
		}
		ops[i].write = r%3 == 0
	}
	done := func() {}
	mem := &llcBenchMem{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		llc, err := cache.New(cache.Table6Config(), mem, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for j, o := range ops {
			if o.write {
				llc.Write(j%4, o.addr)
			} else {
				llc.Read(j%4, o.addr, done)
			}
			llc.Tick()
		}
		if llc.Stats.Hits == 0 || llc.Stats.Writebacks == 0 {
			b.Fatalf("stream lost its mix: %+v", llc.Stats)
		}
	}
}

// benchStoreSpec is the tiny fig5 grid the CI service smoke submits
// twice; the store benchmarks time the two sides of that exchange.
func benchStoreSpec(b *testing.B) core.ExperimentSpec {
	b.Helper()
	spec, err := core.NewSpec("fig5", 7, core.CharParams{Scale: "tiny", Chips: 2, Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	return spec
}

// BenchmarkStoreColdSubmit is a cache-miss submission: compute the grid
// and persist it atomically (the service's first-POST path).
func BenchmarkStoreColdSubmit(b *testing.B) {
	spec := benchStoreSpec(b)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := store.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		r := store.Runner{Store: st}
		_, _, hit, err := r.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if hit {
			b.Fatal("cold submit reported a cache hit")
		}
	}
}

// BenchmarkStoreWarmHit is the second submission of the same spec: the
// result must come back from the store, verified, with no tasks run.
func BenchmarkStoreWarmHit(b *testing.B) {
	spec := benchStoreSpec(b)
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	r := store.Runner{Store: st}
	if _, _, _, err := r.Run(context.Background(), spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, hit, err := r.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if !hit {
			b.Fatal("warm submit missed the store")
		}
	}
}
