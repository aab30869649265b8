package main

import (
	"flag"
	"fmt"
	"time"

	"repro/internal/core"
)

// cmdReport runs the complete reproduction — every characterization
// table/figure plus the mitigation evaluation — and prints one
// consolidated report, the source of EXPERIMENTS.md's measured columns.
// Every section is a spec executed through the experiment registry. The
// wall-clock timing lines are the only part that varies between runs of
// one seed, whatever -parallel is.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("rhx report", flag.ExitOnError)
	var (
		quick    = fs.Bool("quick", false, "tiny scale, seconds")
		full     = fs.Bool("full", false, "full scale, hours")
		parallel = fs.Int("parallel", 0, "concurrent experiment tasks (0 = all cores; output is identical for any value)")
		seed     = fs.Uint64("seed", 1, "seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cp := core.CharParams{Scale: "small", Chips: 4}
	mp := core.Fig10Params{
		Mixes: 12, Cores: 8, TraceRecords: 3000,
		WarmupInsts: 5000, MeasureInsts: 30000,
	}
	switch {
	case *quick:
		cp = core.CharParams{Scale: "tiny", Chips: 1, Iterations: 3, Stride: 2}
		mp.Mixes = 2
		mp.Cores = 4
		mp.MeasureInsts = 10000
		mp.HCSweep = []int{100_000, 2_000, 256}
	case *full:
		cp = core.CharParams{Scale: "medium", Chips: -1}
		mp = core.Fig10Params{} // registry defaults = the paper's full sweep
	}
	ex := core.Exec{Parallelism: *parallel}

	artifact := func(name string, params any) (core.Artifact, error) {
		spec, err := core.NewSpec(name, *seed, params)
		if err != nil {
			return nil, err
		}
		res, err := core.RunWith(spec, ex)
		if err != nil {
			return nil, err
		}
		return res.Artifact()
	}
	format := func(name string, params any) func() (string, error) {
		return func() (string, error) {
			art, err := artifact(name, params)
			if err != nil {
				return "", err
			}
			return art.Format(), nil
		}
	}
	sections := []struct {
		name   string
		render func() (string, error)
	}{
		{"table1", format("table1", cp)},
		{"table2", format("table2", cp)},
		{"figure4+table3", func() (string, error) {
			// Table 3 is a different rendering of Figure 4's cells; run
			// the grid once and derive both views.
			art, err := artifact("fig4", cp)
			if err != nil {
				return "", err
			}
			f := art.(*core.Figure4)
			return f.Format() + "\n" + (&core.Table3{Rows: f.Rows}).Format(), nil
		}},
		{"figure5", format("fig5", cp)},
		{"figure6", format("fig6", cp)},
		{"figure7", format("fig7", cp)},
		{"figure8+table4", func() (string, error) {
			art, err := artifact("fig8", cp)
			if err != nil {
				return "", err
			}
			s := art.(*core.Figure8)
			return s.FormatFigure8() + "\n" + s.FormatTable4(), nil
		}},
		{"figure9", format("fig9", cp)},
		{"table5", format("table5", cp)},
		{"figure10", format("fig10", mp)},
	}

	start := time.Now()
	fmt.Println("=== RowHammer revisited: reproduction report ===")
	fmt.Println()
	for _, s := range sections {
		t0 := time.Now()
		text, err := s.render()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Println(text)
		fmt.Printf("  [%s in %v]\n\n", s.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("=== report complete in %v ===\n", time.Since(start).Round(time.Second))
	return nil
}
