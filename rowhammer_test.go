package rowhammer_test

import (
	"testing"

	rowhammer "repro"
)

// TestPublicAPIQuickstart exercises the README's quickstart path through
// the facade only.
func TestPublicAPIQuickstart(t *testing.T) {
	chip, err := rowhammer.NewChip(rowhammer.ChipConfig{
		Name: "api-test", Banks: 1, Rows: 256, RowBits: 1024,
		HCFirst: 8_000, Rate150k: 1e-4,
		WorstPattern: rowhammer.RowStripe0, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	tester, err := rowhammer.NewTester(chip, 0)
	if err != nil {
		t.Fatal(err)
	}
	tester.WritePattern(rowhammer.RowStripe0)
	victim := chip.WeakestCell().Row
	flips, err := tester.HammerDoubleSided(victim, 3*8_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) == 0 {
		t.Fatal("no flips above threshold")
	}
	hc, found, err := tester.MeasureHCFirst(rowhammer.HCFirstOptions{})
	if err != nil || !found {
		t.Fatalf("HCfirst not found: %v", err)
	}
	if hc < 4_000 || hc > 14_000 {
		t.Errorf("measured HCfirst %d far from 8k", hc)
	}
}

func TestPublicAPIPopulation(t *testing.T) {
	pop := rowhammer.NewPopulation(rowhammer.AllModules(), rowhammer.ScaleTiny, 1)
	if len(pop.Chips) == 0 {
		t.Fatal("empty population")
	}
	if len(pop.Census()) == 0 {
		t.Fatal("empty census")
	}
	chip, err := pop.Instantiate(pop.Chips[0])
	if err != nil {
		t.Fatal(err)
	}
	if chip.Rows() != rowhammer.ScaleTiny.Rows {
		t.Errorf("instantiated rows = %d", chip.Rows())
	}
}

func TestPublicAPISimulation(t *testing.T) {
	cfg := rowhammer.Table6SimConfig(500, 4_000)
	mix := rowhammer.WorkloadMixes(1, 2, 500, 1)[0]
	res, err := rowhammer.RunSim(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalIPC() <= 0 {
		t.Fatal("zero IPC")
	}
	para, err := rowhammer.NewPARA(cfg.MitigationParams(1_000, 1), cfg.T.TCKPS)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mechanism = para
	res2, err := rowhammer.RunSim(cfg, mix)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Mechanism != "PARA" {
		t.Errorf("mechanism = %q", res2.Mechanism)
	}
}

// runPublic runs one experiment through the facade's spec path and
// returns its artifact.
func runPublic(t *testing.T, name string, params any) any {
	t.Helper()
	spec, err := rowhammer.NewExperimentSpec(name, 1, params)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := rowhammer.RunExperimentWith(spec, rowhammer.ExperimentExec{Parallelism: 2})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	art, err := res.Artifact()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return art
}

func TestPublicAPIExperimentRunners(t *testing.T) {
	p := rowhammer.CharParams{Scale: "tiny", Chips: 1, Iterations: 2}
	if t1 := runPublic(t, "table1", p).(*rowhammer.Table1); len(t1.Rows) == 0 {
		t.Fatal("Table 1: empty census")
	}
	if t2 := runPublic(t, "table2", p).(*rowhammer.Table2); len(t2.Rows) != 6 {
		t.Fatalf("Table 2: %d rows, want 6", len(t2.Rows))
	}
	if t7 := runPublic(t, "table7", nil).(*rowhammer.ModuleTable); len(t7.Modules) != 110 {
		t.Error("Table 7 module count")
	}
	if t8 := runPublic(t, "table8", nil).(*rowhammer.ModuleTable); len(t8.Modules) != 60 {
		t.Error("Table 8 module count")
	}
}
