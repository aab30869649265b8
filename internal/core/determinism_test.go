package core

import "testing"

// The engine's contract: formatted experiment output is byte-identical
// regardless of Exec.Parallelism. These tests pin it for representative
// experiments of each shape — one-chip-per-config (Table 3), all-chips
// fan-out (Figure 9, Figure 8/Table 4), and the two-phase mitigation
// sweep (Figure 10).

// detParams is the tiny characterization scale of these tests.
var detParams = CharParams{Scale: "tiny", Chips: 2, Iterations: 2}

func TestCharacterizationParallelismInvariant(t *testing.T) {
	runners := []struct {
		name string
		exps []string
	}{
		{"table2", []string{"table2"}},
		{"table3", []string{"table3"}},
		{"table5", []string{"table5"}},
		{"figure5", []string{"fig5"}},
		{"figure6", []string{"fig6"}},
		{"figure7", []string{"fig7"}},
		{"figure8+table4", []string{"fig8", "table4"}},
		{"figure9", []string{"fig9"}},
	}
	for _, tc := range runners {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			run := func(parallelism int) string {
				var out string
				for _, name := range tc.exps {
					out += runArtifact[Artifact](t, name, 1, detParams, parallelism).Format()
				}
				return out
			}
			serial := run(1)
			if serial == "" {
				t.Fatal("empty output")
			}
			if parallel := run(8); serial != parallel {
				t.Errorf("output differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
			}
		})
	}
}

func TestFigure10ParallelismInvariant(t *testing.T) {
	run := func(parallelism int) string {
		return runArtifact[*Figure10](t, "fig10", 3, Fig10Params{
			Mixes:        2,
			Cores:        2,
			TraceRecords: 800,
			WarmupInsts:  500,
			MeasureInsts: 5_000,
			HCSweep:      []int{100_000, 2_000, 256},
			Mechanisms:   []MechanismID{MechPARA, MechIdeal, MechProHIT},
		}, parallelism).Format()
	}
	serial := run(1)
	parallel := run(8)
	if serial != parallel {
		t.Errorf("Figure 10 output differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}
