package core

import (
	"fmt"
	"slices"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/faultmodel"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/trace"
)

// This file is the shared adversarial set-up of the attack, pareto and
// trr-dodge experiments. Each maps its params onto one sweepSystem, and
// newSweepRig runs their common phase 1 from it: the duration-terminated
// system, the benign baseline when the sweep has benign cores, and the
// shard-invariant sweepMeta. Every grid cell then runs through
// sweepRig.run. The experiments differ in their grids and in the cell
// payload they keep: per-pattern points (attack), worst-case frontier
// aggregates (pareto), or points with per-REF sampler evidence
// (trr-dodge).

// SchedulerID names a memory-controller scheduling policy of the sweep's
// scheduler axis.
type SchedulerID string

const (
	// SchedFRFCFS is the paper's baseline first-ready FCFS scheduler.
	SchedFRFCFS SchedulerID = "FR-FCFS"
	// SchedBLISS is the fairness-aware variant: per-requester service
	// streak counters blacklist a requester that monopolizes consecutive
	// read service, demoting (never blocking) its requests until the next
	// clearing interval.
	SchedBLISS SchedulerID = "BLISS"
)

// Schedulers lists the scheduler axis in evaluation order.
func Schedulers() []SchedulerID { return []SchedulerID{SchedFRFCFS, SchedBLISS} }

// applyScheduler configures a simulation for the scheduling policy.
// streak and clear parameterize BLISS (0 keeps the controller defaults:
// streak 4, clearing interval 10k cycles) and are ignored for FR-FCFS.
func applyScheduler(cfg *sim.Config, id SchedulerID, streak int, clear int64) error {
	switch id {
	case "", SchedFRFCFS:
		return nil
	case SchedBLISS:
		cfg.Ctrl.BLISS = true
		cfg.Ctrl.BLISSStreak = streak
		cfg.Ctrl.BLISSClearCycles = clear
		return nil
	default:
		return fmt.Errorf("core: unknown scheduler %q", id)
	}
}

// knownScheduler reports whether applyScheduler accepts id.
func knownScheduler(id SchedulerID) bool { return applyScheduler(&sim.Config{}, id, 0, 0) == nil }

// knownPattern reports whether id is in the attack pattern catalog
// attack.Spec.Synthesize builds from.
func knownPattern(k attack.Kind) bool { return slices.Contains(attack.Kinds(), k) }

// attackSimCfg builds the simulated system for a duration-terminated
// adversarial run. rows 0 keeps the Table 6 geometry.
func attackSimCfg(memCycles int64, rows int) sim.Config {
	cfg := sim.Table6Config(0, 1)
	if rows > 0 {
		cfg.Geo.Rows = rows
		cfg.T = dram.DDR4_2400(rows)
	}
	cfg.WarmupInsts = 0
	cfg.MeasureInsts = 1 << 40 // duration-terminated: MaxCPUCycles decides
	cfg.MaxCPUCycles = memCycles * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
	return cfg
}

// attackChip builds the victim chip for an HCfirst point: a DDR4-like
// part spanning the simulated channel, blast radius 1. Without on-die ECC
// escaped flips are directly attributable; with it (the LPDDR4-like
// configuration) the observer reports post-correction escapes alongside
// raw flips.
func attackChip(cfg sim.Config, hc int, seed uint64, ecc bool) (*faultmodel.Chip, error) {
	chip, err := faultmodel.NewChip(faultmodel.Config{
		Name:         fmt.Sprintf("attacked-hc%d", hc),
		Banks:        cfg.Geo.Banks(),
		Rows:         cfg.Geo.Rows,
		RowBits:      1024,
		HCFirst:      float64(hc),
		Rate150k:     5e-5,
		WorstPattern: faultmodel.RowStripe0,
		OnDieECC:     ecc,
		Seed:         seed,
	})
	if err != nil {
		return nil, err
	}
	chip.WriteAll(faultmodel.RowStripe0)
	return chip, nil
}

// sweepSystem is the system shape the attack, pareto and trr-dodge
// params share under their own field names: the benign side, the attack
// window, the geometry and the attacker streams' pacing. exp names the
// experiment in errors.
type sweepSystem struct {
	exp                                            string
	benignCores, traceRecords, rows, attackRecords int
	memCycles                                      int64
	ecc                                            bool
	pacing                                         *attack.Spec // nil: unpaced
}

// validate rejects attack pacing outside its [0,1) domain, negative
// counts and a rows override too small for an attack stream (0 keeps
// the Table 6 geometry).
func (s sweepSystem) validate() error {
	if s.pacing != nil {
		if err := s.pacing.Validate(); err != nil {
			return err
		}
	}
	if err := checkCounts(s.exp,
		countParam{"benign_cores", int64(s.benignCores)}, countParam{"trace_records", int64(s.traceRecords)},
		countParam{"mem_cycles", s.memCycles}, countParam{"rows", int64(s.rows)},
		countParam{"attack_records", int64(s.attackRecords)}); err != nil {
		return err
	}
	if s.rows > 0 && s.rows < attack.MinRows {
		return fmt.Errorf("core: %s rows %d below the attack minimum of %d (0 keeps the Table 6 geometry)",
			s.exp, s.rows, attack.MinRows)
	}
	return nil
}

// sweepMeta is the shard-invariant metadata of the adversarial sweeps.
type sweepMeta struct {
	MemCycles int64   `json:"mem_cycles"`
	WallMS    float64 `json:"wall_ms"`
	Benign    string  `json:"benign"`
	ECC       bool    `json:"ecc,omitempty"`
}

// sweepCell is one grid point of an adversarial sweep: a mechanism and
// scheduler facing one attack pattern at one HCfirst. An empty Pattern
// marks a benign-only cell (the mechanism's overhead with no attacker in
// the system). streamSeed derives from (pattern, HCfirst) only — never
// the mechanism or scheduler — so every contender at a grid point faces
// the same chip (same weakest cell, same thresholds) and the same
// attacker stream; anything else would confound the comparison.
type sweepCell struct {
	Mech    MechanismID
	Sched   SchedulerID
	Pattern attack.Kind
	HC      int
	// blissStreak / blissClear parameterize the BLISS scheduler for this
	// cell (0 = controller defaults); the Pareto sweep can take them as
	// grid axes.
	blissStreak int
	blissClear  int64
	streamSeed  uint64
	// duty / phase override the sweep's pacing for this cell (the
	// trr-dodge grid takes them as axes); duty 0 keeps the sweep's
	// pacing (full rate unless the params pace).
	duty, phase float64
	// trr, when non-nil, builds the cell's mechanism as a TRR sampler
	// with this configuration instead of going through buildMechanism —
	// the trr-dodge grid's sampler rate/table-size axes.
	trr *mitigation.TRRConfig
}

// sweepSetup is phase 1 of an adversarial experiment for simExperiment:
// newSweepRig over the params' system shape, with cell as the grid's
// cell function.
func sweepSetup[P, C any](system func(P) sweepSystem,
	cell func(r *sweepRig, ctx engine.TaskContext, c sweepCell) (C, error),
) func(rc *runCtx, p P) (sweepMeta, cellFunc[sweepCell, C], error) {
	return func(rc *runCtx, p P) (sweepMeta, cellFunc[sweepCell, C], error) {
		r, meta, err := newSweepRig(system(p), rc.spec.Seed)
		if err != nil {
			return meta, nil, err
		}
		return meta, func(ctx engine.TaskContext, c sweepCell) (C, error) { return cell(r, ctx, c) }, nil
	}
}

// sweepRig is what every cell of one adversarial sweep runs against:
// the simulated system, and the benign cores with their unattacked,
// unmitigated IPCs (both empty for an attacker-only sweep).
type sweepRig struct {
	sys     sweepSystem
	cfg     sim.Config
	benign  trace.Mix
	baseIPC []float64
}

// newSweepRig builds the system and, when the sweep has benign cores,
// runs them alone — no attacker, no mitigation, FR-FCFS — as the shared
// performance reference. Every shard computes the same rig and meta
// from the spec's seed.
func newSweepRig(s sweepSystem, seed uint64) (*sweepRig, sweepMeta, error) {
	r := &sweepRig{sys: s, cfg: attackSimCfg(s.memCycles, s.rows)}
	meta := sweepMeta{
		MemCycles: s.memCycles,
		WallMS:    float64(s.memCycles) * float64(r.cfg.T.TCKPS) * 1e-9,
		Benign:    "attacker only",
		ECC:       s.ecc,
	}
	if s.benignCores == 0 {
		return r, meta, nil
	}
	r.benign = trace.Mixes(1, s.benignCores, s.traceRecords, seed)[0]
	r.benign.Name = "benign"
	base, err := sim.Run(r.cfg, r.benign)
	if err != nil {
		return nil, meta, fmt.Errorf("benign baseline: %w", err)
	}
	for i, v := range base.IPC {
		if v <= 0 {
			return nil, meta, fmt.Errorf("benign baseline: core %d IPC is zero", i)
		}
	}
	r.baseIPC = base.IPC
	meta.Benign = fmt.Sprintf("%d benign cores, MPKI %.0f", s.benignCores, base.MPKI)
	return r, meta, nil
}

// attackPoint is the cell function of the attack and pareto grids.
func (r *sweepRig) attackPoint(ctx engine.TaskContext, cell sweepCell) (AttackPoint, error) {
	pt, _, _, err := r.run(cell, ctx.Seed)
	return pt, err
}

// run simulates one grid point: a mixed attacker+benign run (or a
// benign-only one for an empty Pattern) under the cell's mechanism and
// scheduler, reporting security and performance together. It also
// returns the run's observer (nil for benign-only cells) and mechanism,
// for payloads that carry per-REF timeline evidence and
// mechanism-internal counters. mechSeed is the per-task seed for
// mechanism-internal randomness.
func (r *sweepRig) run(cell sweepCell, mechSeed uint64) (AttackPoint, *attack.Observer, mitigation.Mechanism, error) {
	cfg := r.cfg
	if err := applyScheduler(&cfg, cell.Sched, cell.blissStreak, cell.blissClear); err != nil {
		return AttackPoint{}, nil, nil, err
	}
	var mech mitigation.Mechanism
	var err error
	if cell.trr != nil {
		mech, err = mitigation.NewTRRWithConfig(cfg.MitigationParams(cell.HC, mechSeed^0x3eca), *cell.trr)
	} else {
		mech, err = buildMechanism(cell.Mech, cfg, cell.HC, mechSeed^0x3eca)
	}
	if err != nil {
		return AttackPoint{}, nil, nil, err
	}

	mix := trace.Mix{Name: "benign-only"}
	var obs *attack.Observer
	if cell.Pattern != "" {
		chip, err := attackChip(cfg, cell.HC, cell.streamSeed, r.sys.ecc)
		if err != nil {
			return AttackPoint{}, nil, nil, err
		}
		// The attacker has profiled the chip (the strong threat model of
		// Section 6): aim at the weakest cell's row.
		weak := chip.WeakestCell()
		var spec attack.Spec
		if r.sys.pacing != nil {
			spec = *r.sys.pacing
		}
		spec.Kind = cell.Pattern
		spec.Records = r.sys.attackRecords
		spec.Seed = cell.streamSeed ^ 0xdec0
		if cell.duty > 0 {
			spec.DutyCycle = cell.duty
			spec.Phase = cell.phase
		}
		attackTrace, aggressors, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: weak.Bank, Row: weak.Row})
		if err != nil {
			return AttackPoint{}, nil, nil, err
		}
		obs = attack.NewObserver(chip)
		obs.WatchAggressors(aggressors)
		mix.Name = "attack-" + string(cell.Pattern)
		mix.Traces = append(mix.Traces, attackTrace)
	}
	mix.Traces = append(mix.Traces, r.benign.Traces...)

	runCfg := cfg
	runCfg.Mechanism = mech
	if obs != nil {
		runCfg.Observer = obs
	}
	res, err := sim.Run(runCfg, mix)
	if err != nil {
		return AttackPoint{}, nil, nil, err
	}

	pt := AttackPoint{
		Mechanism:           cell.Mech,
		Scheduler:           cell.Sched,
		Pattern:             cell.Pattern,
		HCFirst:             cell.HC,
		Viable:              true,
		OverheadPct:         res.BandwidthOverheadPct,
		ThrottleStallCycles: res.Ctrl.ThrottleStallCycles,
		TimeToFirstFlipMS:   -1,
	}
	if v, ok := mech.(mitigation.Viability); ok {
		pt.Viable = v.Viable()
	}
	if obs != nil {
		pt.EscapedFlips = obs.EscapedFlips()
		pt.RawFlips = obs.RawFlips()
		pt.AggressorACTs = obs.AggressorACTs()
		if c := obs.FirstFlipCycle(); c >= 0 {
			pt.TimeToFirstFlipMS = float64(c) * float64(cfg.T.TCKPS) * 1e-9
		}
		if secs := float64(r.sys.memCycles) * float64(cfg.T.TCKPS) * 1e-12; secs > 0 {
			pt.AggACTsPerSec = float64(obs.AggressorACTs()) / secs
		}
		// DoS attribution: the attacker sits at core 0 of the mix, so its
		// per-requester bus-busy share is the fraction of demand DRAM
		// service the attack consumed.
		pt.AttackerBusPct = res.Ctrl.BusSharePct(0)
	}
	// Benign performance: weighted speedup of the benign cores against
	// their unattacked, unmitigated baseline. In an attack cell the benign
	// cores sit at positions 1..N behind the attacker; in a benign-only
	// cell they are the whole mix. An attacker-only run (trr-dodge with
	// BenignCores 0) has no benign side to measure: -1.
	if len(r.baseIPC) == 0 {
		pt.BenignPerfPct = -1
		return pt, obs, mech, nil
	}
	off := 0
	if cell.Pattern != "" {
		off = 1
	}
	ws := 0.0
	for i, b := range r.baseIPC {
		ws += res.IPC[i+off] / b
	}
	pt.BenignPerfPct = 100 * ws / float64(len(r.baseIPC))
	return pt, obs, mech, nil
}
