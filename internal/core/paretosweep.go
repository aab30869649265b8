package core

import (
	"errors"
	"fmt"
	"strings"
	"text/tabwriter"

	"repro/internal/attack"
	"repro/internal/engine"
)

// The pareto experiment is the combined security/overhead frontier: a
// (mechanism × scheduler × HCfirst) grid where each point runs once per
// attack pattern plus once with no attacker. It runs on the adversarial
// set-up in sweep.go and folds each point's cells into one worst-case
// frontier point per HCfirst.

// ParetoPoint is one (mechanism, scheduler, HCfirst) frontier candidate,
// aggregated across attack patterns.
type ParetoPoint struct {
	Mechanism MechanismID
	Scheduler SchedulerID
	// BLISSStreak / BLISSClear identify the BLISS parameter point when
	// the sweep takes them as axes (0 = controller defaults).
	BLISSStreak int
	BLISSClear  int64
	HCFirst     int
	Viable      bool

	// Security axis: worst case across the evaluated attack patterns.
	EscapedFlips int
	RawFlips     int

	// Overhead axis: BenignPerfPct is the worst-case benign throughput
	// under attack (% of the unattacked, unmitigated baseline);
	// NoAttackPerfPct the same metric with no attacker in the system (the
	// mechanism+scheduler's pure benign cost); OverheadPct the worst-case
	// Figure 10a DRAM bandwidth overhead under attack.
	BenignPerfPct   float64
	NoAttackPerfPct float64
	OverheadPct     float64

	// OnFrontier marks points no other point at the same HCfirst
	// dominates (fewer-or-equal escaped flips AND greater-or-equal benign
	// throughput, with at least one strict).
	OnFrontier bool
}

// ParetoSweep is the full frontier result.
type ParetoSweep struct {
	Points    []ParetoPoint
	Patterns  []attack.Kind
	MemCycles int64
	WallMS    float64
	Benign    string
	ECC       bool
}

// ParetoParams is the parameter block of the combined security/overhead
// sweep: the (mechanism × scheduler × HCfirst) grid, each point
// evaluated under every attack pattern plus one attacker-free run. Zero
// fields take the CLI-scale defaults in normalized: the unprotected
// baseline, the paper's most scalable refresh-based mechanism, both
// BlockHammer admission policies and the oracle bound, under both
// schedulers, against the two highest-pressure patterns.
type ParetoParams struct {
	Mechanisms []MechanismID `json:"mechanisms,omitempty"`
	Schedulers []SchedulerID `json:"schedulers,omitempty"`
	Patterns   []attack.Kind `json:"patterns,omitempty"`
	HCSweep    []int         `json:"hc,omitempty"`
	// BenignCores / TraceRecords size the benign side of each mix;
	// MemCycles the attack window; Rows the per-bank geometry (0 =
	// Table 6, otherwise at least attack.MinRows); AttackRecords one
	// attacker trace pass (0 = default). The defaults and their meaning
	// match AttackParams.
	BenignCores   int   `json:"benign_cores,omitempty"`
	TraceRecords  int   `json:"trace_records,omitempty"`
	MemCycles     int64 `json:"mem_cycles,omitempty"`
	Rows          int   `json:"rows,omitempty"`
	AttackRecords int   `json:"attack_records,omitempty"`
	// ECC evaluates LPDDR4-like chips with on-die ECC: escaped flips are
	// post-correction, reported alongside the raw count.
	ECC bool `json:"ecc,omitempty"`
	// Attack carries pacing applied to every synthesized stream; kind,
	// records and seed are set per grid cell.
	Attack *attack.Spec `json:"attack,omitempty"`
	// BLISSStreaks / BLISSClears turn the BLISS scheduler parameters into
	// sweep axes: every BLISS grid point is evaluated at each (streak,
	// clearing-interval) combination. Empty means one point at the
	// controller defaults (streak 4, 10k cycles). FR-FCFS points ignore
	// both axes.
	BLISSStreaks []int   `json:"bliss_streaks,omitempty"`
	BLISSClears  []int64 `json:"bliss_clears,omitempty"`
}

// Validate rejects axis values the grid cannot distinguish (repeated
// values, or labels that collide with the defaults: duplicate task
// keys), unknown mechanism, scheduler and pattern names, attack pacing
// outside its [0,1) domain, non-positive HCfirst points and BLISS axis
// values, and negative counts.
func (p *ParetoParams) Validate() error {
	for _, s := range p.BLISSStreaks {
		if s <= 0 {
			return fmt.Errorf("core: pareto bliss_streaks value %d not positive (omit the field for the controller default)", s)
		}
	}
	for _, c := range p.BLISSClears {
		if c <= 0 {
			return fmt.Errorf("core: pareto bliss_clears value %d not positive (omit the field for the controller default)", c)
		}
	}
	keys, _ := paretoGrid(p.normalized(), 0)
	return errors.Join(p.system().validate(), checkHCSweep("pareto", p.HCSweep),
		checkNames("pareto", "mechanisms", p.Mechanisms, knownMechanism),
		checkNames("pareto", "schedulers", p.Schedulers, knownScheduler),
		checkNames("pareto", "patterns", p.Patterns, knownPattern),
		uniqueKeys("pareto", keys))
}

// system maps the params onto the shared adversarial set-up.
func (p ParetoParams) system() sweepSystem {
	return sweepSystem{"pareto", p.BenignCores, p.TraceRecords, p.Rows, p.AttackRecords, p.MemCycles, p.ECC, p.Attack}
}

func (p ParetoParams) normalized() ParetoParams {
	if len(p.Mechanisms) == 0 {
		p.Mechanisms = []MechanismID{MechNone, MechPARA, MechBlockHammerBlanket, MechBlockHammer, MechIdeal}
	}
	if len(p.Schedulers) == 0 {
		p.Schedulers = Schedulers()
	}
	if len(p.Patterns) == 0 {
		p.Patterns = []attack.Kind{attack.DoubleSided, attack.Decoy}
	}
	if len(p.HCSweep) == 0 {
		p.HCSweep = []int{4_800, 512}
	}
	if p.BenignCores <= 0 {
		p.BenignCores = 3
	}
	if p.TraceRecords <= 0 {
		p.TraceRecords = 2_000
	}
	if p.MemCycles <= 0 {
		p.MemCycles = 3_000_000
	}
	return p
}

// blissVariant is one point of the BLISS parameter axes.
type blissVariant struct {
	streak int
	clear  int64
}

// blissVariants expands the configured axes; FR-FCFS uses the single
// zero variant.
func (p ParetoParams) blissVariants(sched SchedulerID) []blissVariant {
	if sched != SchedBLISS {
		return []blissVariant{{}}
	}
	streaks := p.BLISSStreaks
	if len(streaks) == 0 {
		streaks = []int{0}
	}
	clears := p.BLISSClears
	if len(clears) == 0 {
		clears = []int64{0}
	}
	var out []blissVariant
	for _, s := range streaks {
		for _, c := range clears {
			out = append(out, blissVariant{streak: s, clear: c})
		}
	}
	return out
}

// paretoGrid flattens the (mechanism × scheduler-variant × HCfirst) grid:
// per point, every attack pattern plus the benign-only cell, in
// deterministic order. The stream seed depends only on (pattern, HCfirst)
// so every contender faces the same chip and attacker stream; seed is
// the spec's base seed.
func paretoGrid(p ParetoParams, seed uint64) (keys []string, cells []sweepCell) {
	for _, mech := range p.Mechanisms {
		for _, sched := range p.Schedulers {
			for _, v := range p.blissVariants(sched) {
				for hi, hc := range p.HCSweep {
					add := func(pat attack.Kind, seed uint64) {
						cells = append(cells, sweepCell{
							Mech: mech, Sched: sched, Pattern: pat, HC: hc,
							blissStreak: v.streak, blissClear: v.clear,
							streamSeed: seed,
						})
						patLabel := string(pat)
						if pat == "" {
							patLabel = "benign-only"
						}
						keys = append(keys, fmt.Sprintf("mech=%s/sched=%s/hc=%d/pat=%s",
							mech, variantLabel(sched, v.streak, v.clear), hc, patLabel))
					}
					for pi, pat := range p.Patterns {
						add(pat, engine.DeriveSeed(seed^0x57eea, uint64(pi*len(p.HCSweep)+hi)))
					}
					add("", 0)
				}
			}
		}
	}
	return keys, cells
}

// variantLabel renders a scheduler with its BLISS parameters, matching
// SchedulerLabel on points.
func variantLabel(sched SchedulerID, streak int, clear int64) string {
	if sched != SchedBLISS || (streak == 0 && clear == 0) {
		return schedLabel(sched)
	}
	s, c := streak, clear
	if s == 0 {
		s = 4
	}
	if c == 0 {
		c = 10_000
	}
	return fmt.Sprintf("%s[s=%d,c=%d]", SchedBLISS, s, c)
}

// SchedulerLabel renders the point's scheduler including any non-default
// BLISS parameters.
func (p ParetoPoint) SchedulerLabel() string {
	return variantLabel(p.Scheduler, p.BLISSStreak, p.BLISSClear)
}

func init() {
	// Every grid point runs one mixed attacker+benign simulation per
	// attack pattern plus one attacker-free run; finalizePareto folds them
	// into worst-case frontier points per HCfirst.
	simExperiment("pareto",
		"Pareto sweep: worst-case security vs benign overhead per (mechanism × scheduler × HCfirst)",
		paretoGrid, sweepSetup(ParetoParams.system, (*sweepRig).attackPoint), finalizePareto)
}

// finalizePareto aggregates each grid point's pattern block (worst case)
// plus its benign-only run into frontier points.
func finalizePareto(p ParetoParams, meta sweepMeta, cells []sweepCell, results []AttackPoint) Artifact {
	sweep := &ParetoSweep{
		Patterns:  p.Patterns,
		MemCycles: meta.MemCycles,
		WallMS:    meta.WallMS,
		Benign:    meta.Benign,
		ECC:       meta.ECC,
	}
	perPoint := len(p.Patterns) + 1
	for start := 0; start+perPoint <= len(results); start += perPoint {
		block := results[start : start+perPoint]
		cell := cells[start]
		pt := ParetoPoint{
			Mechanism:   block[0].Mechanism,
			Scheduler:   block[0].Scheduler,
			BLISSStreak: cell.blissStreak,
			BLISSClear:  cell.blissClear,
			HCFirst:     block[0].HCFirst,
			Viable:      block[0].Viable,
		}
		pt.BenignPerfPct = block[0].BenignPerfPct
		for _, r := range block[:len(block)-1] { // attack cells
			if r.EscapedFlips > pt.EscapedFlips {
				pt.EscapedFlips = r.EscapedFlips
			}
			if r.RawFlips > pt.RawFlips {
				pt.RawFlips = r.RawFlips
			}
			if r.BenignPerfPct < pt.BenignPerfPct {
				pt.BenignPerfPct = r.BenignPerfPct
			}
			if r.OverheadPct > pt.OverheadPct {
				pt.OverheadPct = r.OverheadPct
			}
		}
		pt.NoAttackPerfPct = block[len(block)-1].BenignPerfPct
		sweep.Points = append(sweep.Points, pt)
	}
	markFrontier(sweep.Points)
	return sweep
}

// markFrontier sets OnFrontier per HCfirst group: a point is on the
// frontier unless some other point at the same HCfirst has no more
// escaped flips and no less worst-case benign throughput, with at least
// one strict improvement.
func markFrontier(points []ParetoPoint) {
	for i := range points {
		points[i].OnFrontier = true
		for j := range points {
			if i == j || points[i].HCFirst != points[j].HCFirst {
				continue
			}
			noWorse := points[j].EscapedFlips <= points[i].EscapedFlips &&
				points[j].BenignPerfPct >= points[i].BenignPerfPct
			strictly := points[j].EscapedFlips < points[i].EscapedFlips ||
				points[j].BenignPerfPct > points[i].BenignPerfPct
			if noWorse && strictly {
				points[i].OnFrontier = false
				break
			}
		}
	}
}

// PointFor returns the aggregate for one (mechanism, scheduler, HCfirst)
// grid point, if present.
func (s *ParetoSweep) PointFor(mech MechanismID, sched SchedulerID, hc int) (ParetoPoint, bool) {
	for _, p := range s.Points {
		if p.Mechanism == mech && p.Scheduler == sched && p.HCFirst == hc {
			return p, true
		}
	}
	return ParetoPoint{}, false
}

// Frontier returns the non-dominated points for one HCfirst, in grid
// order.
func (s *ParetoSweep) Frontier(hc int) []ParetoPoint {
	var out []ParetoPoint
	for _, p := range s.Points {
		if p.HCFirst == hc && p.OnFrontier {
			out = append(out, p)
		}
	}
	return out
}

// Format renders the frontier tables, one HCfirst group per table.
func (s *ParetoSweep) Format() string {
	var sb strings.Builder
	pats := make([]string, len(s.Patterns))
	for i, p := range s.Patterns {
		pats[i] = string(p)
	}
	fmt.Fprintf(&sb, "Pareto sweep: worst-case security vs benign overhead per (mechanism × scheduler × HCfirst)\n")
	fmt.Fprintf(&sb, "(%.2f ms window, patterns %s, %s", s.WallMS, strings.Join(pats, "+"), s.Benign)
	if s.ECC {
		sb.WriteString(", on-die ECC")
	}
	sb.WriteString(")\n")

	var hcs []int
	seen := map[int]bool{}
	for _, p := range s.Points {
		if !seen[p.HCFirst] {
			seen[p.HCFirst] = true
			hcs = append(hcs, p.HCFirst)
		}
	}
	for _, hc := range hcs {
		fmt.Fprintf(&sb, "\nHCfirst = %d\n", hc)
		sb.WriteString(table(func(w *tabwriter.Writer) {
			fmt.Fprintln(w, "mechanism\tscheduler\tflips\traw\tbenign-perf%\tno-attack%\tbw-overhead%\tviable\tfrontier")
			for _, p := range s.Points {
				if p.HCFirst != hc {
					continue
				}
				front := ""
				if p.OnFrontier {
					front = "*"
				}
				fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.1f\t%.1f\t%.3f\t%v\t%s\n",
					p.Mechanism, p.SchedulerLabel(), p.EscapedFlips, p.RawFlips,
					p.BenignPerfPct, p.NoAttackPerfPct, p.OverheadPct, p.Viable, front)
			}
		}))
	}
	sb.WriteString("\nfrontier (*): no same-HCfirst point has fewer escaped flips and higher worst-case benign throughput.\n")
	return sb.String()
}
