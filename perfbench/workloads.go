package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/core"
)

// defaultSeed is the benchmark seed whose result digests are committed
// in digests.json.
const defaultSeed = 1

// workload is one benchmark input set. Each names the layers it stresses;
// README.md records why it was chosen.
type workload struct {
	name string
	// compute lists the specs one cold pass runs; nil for serve-mixed.
	compute func(seed uint64, tiny bool) ([]core.ExperimentSpec, error)
	// probe names the sim probe cell the traced run reports as sim.*.
	probe probeKind
}

var workloads = []*workload{
	{name: "char-medium", compute: charSpecs, probe: denseProbe},
	{name: "fig10-dense", compute: fig10Specs, probe: denseProbe},
	{name: "dodge-sparse", compute: dodgeSpecs, probe: sparseProbe},
	{name: "serve-mixed", probe: denseProbe},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// specSeed derives the seed of spec i of a workload from the benchmark
// seed (splitmix64 over the seed, a per-workload salt and the index), so
// the program only ever sees generated specs.
func specSeed(seed uint64, salt string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(salt))
	x := seed ^ h.Sum64() ^ uint64(i+1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// charSpecs is Table 4 plus Table 3 at the medium chip scale.
func charSpecs(seed uint64, tiny bool) ([]core.ExperimentSpec, error) {
	p := core.CharParams{Scale: "medium"}
	if tiny {
		p = core.CharParams{Scale: "tiny", Chips: 1}
	}
	s := specSeed(seed, "char-medium", 0)
	return specs(
		func() (core.ExperimentSpec, error) { return core.NewSpec("table4", s, p) },
		func() (core.ExperimentSpec, error) { return core.NewSpec("table3", s, p) },
	)
}

// fig10Params is the dense Figure 10 grid: every mechanism's OnActivate
// and the BlockHammer throttler are live on 32 short 4-core mixes. Mixes
// draw trace profiles at random and a memory-bound mix costs several
// times a cache-resident one, so many short mixes keep the work per pass
// within about 10% across seeds; 4 long mixes varied by 60%.
func fig10Params(tiny bool) core.Fig10Params {
	if tiny {
		return core.Fig10Params{
			Mixes: 2, Cores: 2, TraceRecords: 500, WarmupInsts: 500, MeasureInsts: 5000,
			HCSweep:    []int{2000, 256},
			Mechanisms: []core.MechanismID{core.MechPARA, core.MechBlockHammer, core.MechTRR},
		}
	}
	return core.Fig10Params{
		Mixes: 32, Cores: 4, TraceRecords: 1000, WarmupInsts: 1000, MeasureInsts: 5000,
		HCSweep: []int{100000, 4800, 2000, 256},
		Mechanisms: []core.MechanismID{
			core.MechIncreasedRefresh, core.MechPARA, core.MechProHIT, core.MechMRLoc,
			core.MechTWiCe, core.MechTWiCeIdeal, core.MechIdeal, core.MechBlockHammer, core.MechTRR,
		},
	}
}

func fig10Specs(seed uint64, tiny bool) ([]core.ExperimentSpec, error) {
	s := specSeed(seed, "fig10-dense", 0)
	return specs(func() (core.ExperimentSpec, error) { return core.NewSpec("fig10", s, fig10Params(tiny)) })
}

// dodgeParams is the sparse TRR-dodge grid: an attacker alone, paced
// against refresh, so the event engine's bulk skip does most of the work.
func dodgeParams(tiny bool) core.TRRDodgeParams {
	if tiny {
		return core.TRRDodgeParams{
			DutyCycles: []float64{0, 0.5}, Phases: []float64{0.25},
			SampleRates: []float64{0.5}, TableSizes: []int{4}, MemCycles: 1_000_000,
		}
	}
	return core.TRRDodgeParams{
		DutyCycles: []float64{0, 0.25, 0.5}, Phases: []float64{0, 0.25, 0.5, 0.75},
		SampleRates: []float64{0.25, 0.5}, TableSizes: []int{4, 8}, MemCycles: 6_000_000,
	}
}

func dodgeSpecs(seed uint64, tiny bool) ([]core.ExperimentSpec, error) {
	s := specSeed(seed, "dodge-sparse", 0)
	return specs(func() (core.ExperimentSpec, error) { return core.NewSpec("trr-dodge", s, dodgeParams(tiny)) })
}

// tinyChar is the tiny characterization shape the service workload
// submits: one chip per configuration, tens of milliseconds per spec.
var tinyChar = core.CharParams{Scale: "tiny", Chips: 1}

// prewarmSpecs are the specs serve-mixed stores during set-up and then
// reads back warm: four experiment kinds, two seeds each (one in tiny
// mode).
func prewarmSpecs(seed uint64, tiny bool) ([]core.ExperimentSpec, error) {
	seeds := 2
	if tiny {
		seeds = 1
	}
	var out []core.ExperimentSpec
	for i := 0; i < seeds; i++ {
		for _, name := range []string{"fig4", "fig5", "fig8", "table4"} {
			sp, err := core.NewSpec(name, specSeed(seed, "serve-warm", i), tinyChar)
			if err != nil {
				return nil, err
			}
			out = append(out, sp)
		}
	}
	return out, nil
}

// coldSpec is serve-mixed's i-th cold request: a tiny fig5 spec under a
// seed no other request uses, so the service must compute it.
func coldSpec(seed uint64, i int) (core.ExperimentSpec, error) {
	return core.NewSpec("fig5", specSeed(seed, "serve-cold", i), tinyChar)
}

// pinned lists the specs of one run that must have committed digests at
// the default seed: the compute specs (serve-mixed: the pre-warm specs)
// and the leading cold specs, which serve-mixed recomputes and every
// traced run probes.
func (w *workload) pinned(seed uint64, tiny bool) ([]core.ExperimentSpec, error) {
	var out []core.ExperimentSpec
	var err error
	if w.compute != nil {
		out, err = w.compute(seed, tiny)
	} else {
		out, err = prewarmSpecs(seed, tiny)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < pinnedCold; i++ {
		sp, err := coldSpec(seed, i)
		if err != nil {
			return nil, err
		}
		out = append(out, sp)
	}
	return out, nil
}

func specs(fns ...func() (core.ExperimentSpec, error)) ([]core.ExperimentSpec, error) {
	out := make([]core.ExperimentSpec, len(fns))
	for i, fn := range fns {
		sp, err := fn()
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}
