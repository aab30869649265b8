package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/mitigation"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// MechanismID names the evaluated mechanisms.
type MechanismID string

const (
	MechNone             MechanismID = "None"
	MechIncreasedRefresh MechanismID = "IncreasedRefresh"
	MechPARA             MechanismID = "PARA"
	MechProHIT           MechanismID = "ProHIT"
	MechMRLoc            MechanismID = "MRLoc"
	MechTWiCe            MechanismID = "TWiCe"
	MechTWiCeIdeal       MechanismID = "TWiCe-ideal"
	MechIdeal            MechanismID = "Ideal"
	// MechBlockHammer is the post-paper throttling contender evaluated by
	// the attack subsystem (the attack experiment); it is not part of Figure 10's
	// paper-faithful mechanism list but can be requested explicitly. Its
	// RowBlocker-Req queue admission is requester-aware and proportional:
	// a blacklisted-row request is delayed in proportion to its source
	// thread's RowHammer likelihood index (BlockHammer's full design).
	MechBlockHammer MechanismID = "BlockHammer"
	// MechBlockHammerBinary is BlockHammer with the binary per-requester
	// admission gate (reject outright at RHLI ≥ 1) — the previous default,
	// kept as the comparison baseline for the proportional policy.
	MechBlockHammerBinary MechanismID = "BlockHammer-binary"
	// MechBlockHammerBlanket is BlockHammer with the legacy requester-
	// blind admission policy (reject any blacklisted-row read once the
	// queue is half full) — the baseline the per-thread policies are
	// measured against.
	MechBlockHammerBlanket MechanismID = "BlockHammer-blanket"
	// MechTRR is the in-DRAM counter-sampled Target Row Refresh model
	// (default sampler parameters): a small per-bank sampler table fed by
	// the activation stream in the observation window before each REF,
	// with neighbour refreshes piggybacked on REF commands. It is the
	// defense the trr-dodge experiment paces attacks around; that
	// experiment sweeps the sampler's rate/table-size axes directly.
	MechTRR MechanismID = "TRR"
)

// AllMechanisms lists the Figure 10 series in plotting order.
func AllMechanisms() []MechanismID {
	return []MechanismID{
		MechIncreasedRefresh, MechPARA, MechProHIT, MechMRLoc,
		MechTWiCe, MechTWiCeIdeal, MechIdeal,
	}
}

// mechBuilder constructs one mechanism from its Params and the clock
// period (only PARA needs the period).
type mechBuilder func(p mitigation.Params, tckPS int64) (mitigation.Mechanism, error)

// mechanismBuilders holds every mechanism a spec may name: the table
// buildMechanism constructs from and the params' Validate checks names
// against.
var mechanismBuilders = map[MechanismID]mechBuilder{
	MechNone:               func(mitigation.Params, int64) (mitigation.Mechanism, error) { return mitigation.NewNone(), nil },
	MechBlockHammer:        paramsOnly(mitigation.NewBlockHammer),
	MechBlockHammerBinary:  paramsOnly(mitigation.NewBlockHammerBinary),
	MechBlockHammerBlanket: paramsOnly(mitigation.NewBlockHammerBlanket),
	MechTRR:                paramsOnly(mitigation.NewTRR),
	MechIncreasedRefresh:   paramsOnly(mitigation.NewIncreasedRefresh),
	MechPARA: func(p mitigation.Params, tckPS int64) (mitigation.Mechanism, error) {
		return mitigation.NewPARA(p, tckPS)
	},
	MechProHIT:     paramsOnly(mitigation.NewProHIT),
	MechMRLoc:      paramsOnly(mitigation.NewMRLoc),
	MechTWiCe:      func(p mitigation.Params, _ int64) (mitigation.Mechanism, error) { return mitigation.NewTWiCe(p, false) },
	MechTWiCeIdeal: func(p mitigation.Params, _ int64) (mitigation.Mechanism, error) { return mitigation.NewTWiCe(p, true) },
	MechIdeal:      paramsOnly(mitigation.NewIdeal),
}

// paramsOnly adapts a constructor that takes only the Params.
func paramsOnly[M mitigation.Mechanism](build func(mitigation.Params) (M, error)) mechBuilder {
	return func(p mitigation.Params, _ int64) (mitigation.Mechanism, error) { return build(p) }
}

// knownMechanism reports whether buildMechanism can build id.
func knownMechanism(id MechanismID) bool { _, ok := mechanismBuilders[id]; return ok }

// buildMechanism constructs a mechanism instance for an HCfirst point.
func buildMechanism(id MechanismID, cfg sim.Config, hcFirst int, seed uint64) (mitigation.Mechanism, error) {
	build, ok := mechanismBuilders[id]
	if !ok {
		return nil, fmt.Errorf("core: unknown mechanism %q", id)
	}
	return build(cfg.MitigationParams(hcFirst, seed), cfg.T.TCKPS)
}

// hcPointsFor returns the HCfirst sweep points a mechanism is evaluated
// at, following Section 6.2.2: ProHIT and MRLoc only at their published
// 2k point; Increased Refresh and real TWiCe only at ≥32k; PARA,
// TWiCe-ideal and Ideal across the whole sweep.
func hcPointsFor(id MechanismID, sweep []int) []int {
	var out []int
	for _, hc := range sweep {
		switch id {
		case MechProHIT, MechMRLoc:
			if hc == 2000 {
				out = append(out, hc)
			}
		case MechIncreasedRefresh, MechTWiCe:
			if hc >= 32_000 {
				out = append(out, hc)
			}
		case MechTWiCeIdeal:
			if hc < 32_000 {
				out = append(out, hc)
			}
		default:
			out = append(out, hc)
		}
	}
	return out
}

// DefaultHCSweep is the Figure 10 x-axis: 200k down to 64, including the
// ProHIT/MRLoc 2k point and the chips' minimum HCfirst values.
func DefaultHCSweep() []int {
	return []int{200_000, 100_000, 64_000, 32_000, 16_000, 8_000, 4_800,
		2_000, 1_024, 512, 256, 128, 64}
}

// F10Point is one (mechanism, HCfirst) point of Figure 10, aggregated
// across mixes.
type F10Point struct {
	Mechanism MechanismID
	HCFirst   int
	Viable    bool

	// NormPerf is Figure 10b: weighted speedup normalized to the
	// no-mitigation baseline, in percent (mean / min / max across mixes).
	NormPerf, NormPerfMin, NormPerfMax float64

	// Overhead is Figure 10a: DRAM bandwidth overhead percent.
	Overhead, OverheadMin, OverheadMax float64
}

// Figure10 is the full mitigation evaluation.
type Figure10 struct {
	Points   []F10Point
	Mixes    int
	MixMPKIs []float64 // aggregate MPKI per mix on the baseline
}

// Fig10Params is the parameter block of the Figure 10 evaluation. The
// paper simulates 200M instructions per core over 48 mixes; the
// defaults keep the same structure at tractable cost. Zero fields take
// the defaults in normalized.
type Fig10Params struct {
	// Mixes is the number of multi-programmed mixes (paper and default:
	// 48).
	Mixes int `json:"mixes,omitempty"`
	// Cores is the number of cores per mix (paper and default: 8).
	Cores int `json:"cores,omitempty"`
	// TraceRecords is the number of memory records per trace (default
	// 4000).
	TraceRecords int `json:"trace_records,omitempty"`
	// WarmupInsts is the per-core warmup before measurement. Unlike the
	// other counts, 0 is not a default request: it means no warmup.
	// Reading it as a default would change the results of every stored
	// fig10 spec that omits it. `rhx report` sets 5000 explicitly.
	WarmupInsts int64 `json:"warmup_insts,omitempty"`
	// MeasureInsts is the per-core measured instruction count (default
	// 50000).
	MeasureInsts int64 `json:"measure_insts,omitempty"`
	// HCSweep is the HCfirst axis (default DefaultHCSweep).
	HCSweep []int `json:"hc,omitempty"`
	// Mechanisms is the mechanism axis (default AllMechanisms).
	Mechanisms []MechanismID `json:"mechanisms,omitempty"`
}

// Validate rejects non-positive HCfirst points, negative counts,
// unknown mechanism names and repeated axis values (duplicate task
// keys) at spec decode.
func (p *Fig10Params) Validate() error {
	keys, _ := fig10Grid(p.normalized(), 0)
	return errors.Join(checkHCSweep("fig10", p.HCSweep),
		checkCounts("fig10",
			countParam{"mixes", int64(p.Mixes)}, countParam{"cores", int64(p.Cores)},
			countParam{"trace_records", int64(p.TraceRecords)},
			countParam{"warmup_insts", p.WarmupInsts}, countParam{"measure_insts", p.MeasureInsts}),
		checkNames("fig10", "mechanisms", p.Mechanisms, knownMechanism),
		uniqueKeys("fig10", keys))
}

func (p Fig10Params) normalized() Fig10Params {
	if p.Mixes <= 0 {
		p.Mixes = 48
	}
	if p.Cores <= 0 {
		p.Cores = 8
	}
	if p.TraceRecords <= 0 {
		p.TraceRecords = 4_000
	}
	if p.MeasureInsts <= 0 {
		p.MeasureInsts = 50_000
	}
	if len(p.HCSweep) == 0 {
		p.HCSweep = DefaultHCSweep()
	}
	if len(p.Mechanisms) == 0 {
		p.Mechanisms = AllMechanisms()
	}
	return p
}

// fig10Meta is the shard-invariant metadata: every shard recomputes the
// per-mix baselines identically from the spec's seed.
type fig10Meta struct {
	Mixes    int       `json:"mixes"`
	MixMPKIs []float64 `json:"mix_mpkis"`
}

// fig10Job is one (mechanism, HCfirst) task of the Figure 10 grid.
type fig10Job struct {
	mech MechanismID
	hc   int
}

// fig10Grid enumerates the (mechanism, HCfirst) tasks and their keys;
// the grid does not depend on the seed.
func fig10Grid(p Fig10Params, _ uint64) (keys []string, jobs []fig10Job) {
	for _, id := range p.Mechanisms {
		for _, hc := range hcPointsFor(id, p.HCSweep) {
			keys = append(keys, fmt.Sprintf("mech=%s/hc=%d", id, hc))
			jobs = append(jobs, fig10Job{mech: id, hc: hc})
		}
	}
	return keys, jobs
}

func init() {
	simExperiment("fig10", "Figure 10: mitigation-mechanism overhead across the HCfirst sweep",
		fig10Grid, fig10Setup,
		func(_ Fig10Params, meta fig10Meta, _ []fig10Job, points []F10Point) Artifact {
			fig := &Figure10{Points: points, Mixes: meta.Mixes, MixMPKIs: meta.MixMPKIs}
			sort.SliceStable(fig.Points, func(i, j int) bool {
				if fig.Points[i].Mechanism != fig.Points[j].Mechanism {
					return fig.Points[i].Mechanism < fig.Points[j].Mechanism
				}
				return fig.Points[i].HCFirst > fig.Points[j].HCFirst
			})
			return fig
		})
}

// fig10Setup is phase 1 of Figure 10: the per-mix baselines
// (no-mitigation and single-core alone runs), shared across mechanisms.
// Every shard recomputes them — they are inputs to each grid cell, and
// being derived purely from the spec's seed they agree bit-for-bit
// across shards.
func fig10Setup(rc *runCtx, p Fig10Params) (fig10Meta, cellFunc[fig10Job, F10Point], error) {
	seed := rc.spec.Seed
	cfg := sim.Table6Config(p.WarmupInsts, p.MeasureInsts)
	mixes := trace.Mixes(p.Mixes, p.Cores, p.TraceRecords, seed)
	baselines, alones, err := mixBaselines(rc.engineOptions(seed), cfg, mixes)
	if err != nil {
		return fig10Meta{}, nil, err
	}
	meta := fig10Meta{Mixes: len(mixes)}
	for _, b := range baselines {
		meta.MixMPKIs = append(meta.MixMPKIs, b.mpki)
	}
	return meta, func(_ engine.TaskContext, jb fig10Job) (F10Point, error) {
		return runPoint(cfg, seed, jb.mech, jb.hc, mixes, alones, baselines)
	}, nil
}

// mixBaseline caches one mix's no-mitigation weighted speedup and MPKI.
type mixBaseline struct {
	ws   float64
	mpki float64
}

// mixBaselines runs every mix's single-core alone IPCs and
// no-mitigation weighted speedup, fanned out over the engine.
func mixBaselines(eo engine.Options, cfg sim.Config, mixes []trace.Mix) ([]mixBaseline, [][]float64, error) {
	type mixResult struct {
		alone []float64
		base  mixBaseline
	}
	mixResults, err := engine.Map(eo, mixes, func(_ engine.TaskContext, mix trace.Mix) (mixResult, error) {
		alone, err := sim.RunAlone(cfg, mix)
		if err != nil {
			return mixResult{}, err
		}
		res, err := sim.Run(cfg, mix)
		if err != nil {
			return mixResult{}, err
		}
		ws, err := sim.WeightedSpeedup(res.IPC, alone)
		if err != nil {
			return mixResult{}, err
		}
		return mixResult{alone: alone, base: mixBaseline{ws: ws, mpki: res.MPKI}}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	baselines := make([]mixBaseline, len(mixes))
	alones := make([][]float64, len(mixes))
	for i, r := range mixResults {
		baselines[i] = r.base
		alones[i] = r.alone
	}
	return baselines, alones, nil
}

// runPoint evaluates one (mechanism, HCfirst) across all mixes; seed is
// the spec's base seed.
func runPoint(cfg sim.Config, seed uint64, id MechanismID, hc int,
	mixes []trace.Mix, alones [][]float64, baselines []mixBaseline,
) (F10Point, error) {
	var perfs, overheads []float64
	viable := true
	for i := range mixes {
		mech, err := buildMechanism(id, cfg, hc, seed+uint64(i)*7919)
		if err != nil {
			return F10Point{}, err
		}
		if v, ok := mech.(mitigation.Viability); ok && !v.Viable() {
			viable = false
		}
		runCfg := cfg
		runCfg.Mechanism = mech
		res, err := sim.Run(runCfg, mixes[i])
		if err != nil {
			return F10Point{}, fmt.Errorf("%s hc=%d mix=%s: %w", id, hc, mixes[i].Name, err)
		}
		ws, err := sim.WeightedSpeedup(res.IPC, alones[i])
		if err != nil {
			return F10Point{}, err
		}
		perfs = append(perfs, 100*ws/baselines[i].ws)
		overheads = append(overheads, res.BandwidthOverheadPct)
	}
	pt := F10Point{Mechanism: id, HCFirst: hc, Viable: viable}
	pt.NormPerf = stats.Mean(perfs)
	pt.NormPerfMin, _ = stats.Min(perfs)
	pt.NormPerfMax, _ = stats.Max(perfs)
	pt.Overhead = stats.Mean(overheads)
	pt.OverheadMin, _ = stats.Min(overheads)
	pt.OverheadMax, _ = stats.Max(overheads)
	return pt, nil
}

// PointsFor filters Figure 10's points for one mechanism, sorted by
// descending HCfirst (the paper's left-to-right x-axis).
func (f *Figure10) PointsFor(id MechanismID) []F10Point {
	var out []F10Point
	for _, p := range f.Points {
		if p.Mechanism == id {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].HCFirst > out[j].HCFirst })
	return out
}
