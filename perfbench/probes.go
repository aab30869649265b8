package main

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/attack"
	"repro/internal/charact"
	"repro/internal/chips"
	"repro/internal/faultmodel"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// probeKind names one of the two sim probe cells.
type probeKind int

const (
	// denseProbe is one fig10-dense cell: BlockHammer at HCfirst 2000 on
	// the first 4-core mix, so the throttler and OnActivate are live.
	denseProbe probeKind = iota
	// sparseProbe is one dodge-sparse cell: a paced double-sided
	// attacker alone against TRR, with the fault-model observer.
	sparseProbe
)

// timedMech counts and times OnActivate calls of the mechanism it wraps.
// It embeds only mitigation.Mechanism; decorate adds the optional
// interfaces the wrapped mechanism has, and no others, so the controller
// sees the same capabilities.
type timedMech struct {
	mitigation.Mechanism
	calls int64
	busy  time.Duration
}

func (m *timedMech) OnActivate(bank, row int, cycle int64, fromMitigation bool) []int {
	t0 := time.Now()
	out := m.Mechanism.OnActivate(bank, row, cycle, fromMitigation)
	m.busy += time.Since(t0)
	m.calls++
	return out
}

func decorate(m mitigation.Mechanism) (mitigation.Mechanism, *timedMech) {
	tm := &timedMech{Mechanism: m}
	th, isThrottler := m.(mitigation.Throttler)
	v, isViable := m.(mitigation.Viability)
	switch {
	case isThrottler && isViable:
		return struct {
			*timedMech
			mitigation.Throttler
			mitigation.Viability
		}{tm, th, v}, tm
	case isThrottler:
		return struct {
			*timedMech
			mitigation.Throttler
		}{tm, th}, tm
	case isViable:
		return struct {
			*timedMech
			mitigation.Viability
		}{tm, v}, tm
	}
	return tm, tm
}

// timedObserver counts ACTs and times every call into the observer it
// wraps.
type timedObserver struct {
	inner sim.CommandObserver
	acts  int64
	busy  time.Duration
}

func (o *timedObserver) OnACT(rank, bank, row int, cycle int64) {
	t0 := time.Now()
	o.inner.OnACT(rank, bank, row, cycle)
	o.busy += time.Since(t0)
	o.acts++
}

func (o *timedObserver) OnRefresh(rank, bank, rowStart, rowCount int, cycle int64) {
	t0 := time.Now()
	o.inner.OnRefresh(rank, bank, rowStart, rowCount, cycle)
	o.busy += time.Since(t0)
}

// probeCell builds a fresh, fully stateful simulation of one probe cell:
// the same inputs on every call.
type probeCell func() (sim.Config, trace.Mix, error)

// probeOutcome is a probe's plain run time plus the decorated run's
// counters.
type probeOutcome struct {
	res  *sim.Result
	wall time.Duration
	mech *timedMech
	obs  *timedObserver
}

// runProbe runs the cell twice, plain and decorated, and fails the
// gate unless both give the identical sim.Result.
func (b *bench) runProbe(name string, cell probeCell) (probeOutcome, error) {
	cfg, mix, err := cell()
	if err != nil {
		return probeOutcome{}, err
	}
	var plain *sim.Result
	wall, err := b.trace.timeSpan("sim.run."+name, func() (err error) { plain, err = sim.Run(cfg, mix); return })
	if err != nil {
		return probeOutcome{}, err
	}
	cfg, mix, err = cell()
	if err != nil {
		return probeOutcome{}, err
	}
	out := probeOutcome{res: plain, wall: wall}
	cfg.Mechanism, out.mech = decorate(cfg.Mechanism)
	if cfg.Observer != nil {
		out.obs = &timedObserver{inner: cfg.Observer}
		cfg.Observer = out.obs
	}
	decorated, err := sim.Run(cfg, mix)
	if err != nil {
		return probeOutcome{}, err
	}
	if !reflect.DeepEqual(plain, decorated) {
		err = fmt.Errorf("%s probe: sim.Result differs with the timing decorators", name)
	}
	b.gate.op(err)
	return out, nil
}

// denseCell is one fig10-dense cell, run 6x longer than the spec's cells
// so per-cycle work, not system construction, dominates the probe. It
// also times trace synthesis of the whole spec's mixes.
func (b *bench) denseCell() probeCell {
	p := fig10Params(b.tiny)
	seed := specSeed(b.seed, "fig10-dense", 0)
	return func() (sim.Config, trace.Mix, error) {
		cfg := sim.Table6Config(p.WarmupInsts, 6*p.MeasureInsts)
		var mixes []trace.Mix
		d, _ := b.trace.timeSpan("trace.synth", func() error {
			mixes = trace.Mixes(p.Mixes, p.Cores, p.TraceRecords, seed)
			return nil
		})
		b.set("trace.synth_ms", ms(d), "ms")
		mech, err := mitigation.NewBlockHammer(cfg.MitigationParams(2000, seed))
		cfg.Mechanism = mech
		return cfg, mixes[0], err
	}
}

// sparseCell is one dodge-sparse cell: duty 0.5, phase 0.25, TRR with
// sample rate 0.5 and 4 entries, built the way the trr-dodge experiment
// builds its cells.
func (b *bench) sparseCell() probeCell {
	p := dodgeParams(b.tiny)
	seed := specSeed(b.seed, "dodge-sparse", 0)
	const hc = 256
	return func() (sim.Config, trace.Mix, error) {
		cfg := sim.Table6Config(0, 1)
		cfg.MeasureInsts = 1 << 40
		cfg.MaxCPUCycles = p.MemCycles * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
		chip, err := faultmodel.NewChip(faultmodel.Config{
			Name: "probe", Banks: cfg.Geo.Banks(), Rows: cfg.Geo.Rows, RowBits: 1024,
			HCFirst: hc, Rate150k: 5e-5, WorstPattern: faultmodel.RowStripe0, Seed: seed,
		})
		if err != nil {
			return cfg, trace.Mix{}, err
		}
		chip.WriteAll(faultmodel.RowStripe0)
		weak := chip.WeakestCell()
		spec := attack.Spec{Kind: attack.DoubleSided, DutyCycle: 0.5, Phase: 0.25, Seed: seed ^ 0xdec0}
		var tr *trace.Trace
		var aggressors []attack.RowRef
		d, err := b.trace.timeSpan("attack.synth", func() (err error) {
			tr, aggressors, err = spec.Synthesize(cfg.Geo, attack.Target{Bank: weak.Bank, Row: weak.Row})
			return
		})
		if err != nil {
			return cfg, trace.Mix{}, err
		}
		b.set("attack.synth_ms", ms(d), "ms")
		obs := attack.NewObserver(chip)
		obs.WatchAggressors(aggressors)
		cfg.Observer = obs
		cfg.Mechanism, err = mitigation.NewTRRWithConfig(cfg.MitigationParams(hc, seed), mitigation.TRRConfig{SampleRate: 0.5, TableSize: 4})
		return cfg, trace.Mix{Name: "probe", Traces: []*trace.Trace{tr}}, err
	}
}

// layerProbes times calls into the characterization and simulation
// layers. Both sim probes run in every traced run; the workload's own
// probe supplies sim.*, cache.*, memctrl.*, dram.* and mitigation.*, and
// the sparse probe, the only one with an observer, supplies attack.*.
func (b *bench) layerProbes() error {
	if err := b.charProbes(); err != nil {
		return err
	}
	dense, err := b.runProbe("dense", b.denseCell())
	if err != nil {
		return err
	}
	sparse, err := b.runProbe("sparse", b.sparseCell())
	if err != nil {
		return err
	}
	own := dense
	if b.w.probe == sparseProbe {
		own = sparse
	}
	r := own.res
	var retired int64
	for _, n := range r.Retired {
		retired += n
	}
	b.set("sim.ns_per_cpu_cycle", float64(own.wall.Nanoseconds())/float64(r.CPUCycles), "ns")
	b.set("sim.cpu_cycles", float64(r.CPUCycles), "count")
	b.set("sim.mem_cycles", float64(r.MemCycles), "count")
	b.set("sim.retired_insts", float64(retired), "count")
	b.set("cache.accesses", float64(r.LLC.Accesses), "count")
	b.set("cache.misses", float64(r.LLC.Misses), "count")
	b.set("memctrl.reads", float64(r.Ctrl.Reads), "count")
	b.set("memctrl.writes", float64(r.Ctrl.Writes), "count")
	b.set("memctrl.demand_acts", float64(r.Ctrl.DemandACTs), "count")
	b.set("memctrl.mitigation_acts", float64(r.Ctrl.MitigationACTs), "count")
	b.set("memctrl.read_queue_full", float64(r.Ctrl.ReadQueueFull), "count")
	b.set("dram.acts", float64(r.Chan.ACTs), "count")
	b.set("dram.refs", float64(r.Chan.REFs), "count")
	b.set("dram.bus_busy_cycles", float64(r.Chan.BusBusyCycles), "count")
	b.set("mitigation.on_activate_calls", float64(own.mech.calls), "count")
	b.set("mitigation.on_activate_s", own.mech.busy.Seconds(), "s")
	b.set("attack.observer_acts", float64(sparse.obs.acts), "count")
	b.set("attack.observer_s", sparse.obs.busy.Seconds(), "s")
	return nil
}

// charProbes times population sampling, chip construction, an HCfirst
// search and a full-bank sweep at char-medium's chip scale.
func (b *bench) charProbes() error {
	scale := chips.ScaleMedium
	if b.tiny {
		scale = chips.ScaleTiny
	}
	seed := specSeed(b.seed, "char-medium", 0)
	var pop *chips.Population
	d, _ := b.trace.timeSpan("chips.population", func() error {
		pop = chips.NewPopulation(chips.AllModules(), scale, seed)
		return nil
	})
	b.set("chips.population_ms", ms(d), "ms")

	const probes = 4
	var newChip, hcFirst, sweep []float64
	for i := 0; i < probes && i < len(pop.Chips); i++ {
		cs := pop.Chips[i*len(pop.Chips)/probes]
		var chip *faultmodel.Chip
		d, err := b.trace.timeSpan("faultmodel.new_chip", func() (err error) { chip, err = pop.Instantiate(cs); return })
		if err != nil {
			return err
		}
		newChip = append(newChip, ms(d))
		t, err := charact.NewTester(chip, 0)
		if err != nil {
			return err
		}
		t.WritePattern(chip.Config().WorstPattern)
		hc := 0
		d, err = b.trace.timeSpan("charact.hcfirst", func() (err error) {
			hc, _, err = t.MeasureHCFirst(charact.HCFirstOptions{Stride: 1})
			return
		})
		if err != nil {
			return err
		}
		hcFirst = append(hcFirst, ms(d))
		if hc <= 0 || hc > t.MaxHC {
			hc = t.MaxHC
		}
		d, err = b.trace.timeSpan("charact.sweep", func() error { _, err := t.Sweep(hc, 1); return err })
		if err != nil {
			return err
		}
		sweep = append(sweep, ms(d))
	}
	b.set("faultmodel.new_chip_ms", median(newChip), "ms")
	b.set("charact.hcfirst_ms", median(hcFirst), "ms")
	b.set("charact.sweep_ms", median(sweep), "ms")
	return nil
}
