package sim

import (
	"testing"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/trace"
)

// BenchmarkEngine times the event engine (event) against the reference
// loop (cycle) on the two regimes that bound it: a dense four-core mix,
// where few cycles can be skipped (the BenchmarkAblationFRFCFS shape),
// and a duty-cycle paced attacker alone, where most of each tREFI is
// skipped (the BenchmarkPacedAttackSparse shape, a trr-dodge cell). The
// ratio cycle/event per shape is the dense-regime deficit to close
// before the event engine wins everywhere.
//
//	go test -run '^$' -bench Engine -count 5 ./internal/sim
func BenchmarkEngine(b *testing.B) {
	shapes := []struct {
		name string
		mk   func(b *testing.B) (Config, trace.Mix)
	}{
		{"dense", func(b *testing.B) (Config, trace.Mix) {
			return Table6Config(1_000, 10_000), trace.Mixes(1, 4, 1_000, 7)[0]
		}},
		{"sparse", func(b *testing.B) (Config, trace.Mix) {
			cfg := Table6Config(0, 1<<40)
			cfg.Geo.Rows = 1024
			cfg.T = dram.DDR4_2400(cfg.Geo.Rows)
			cfg.MaxCPUCycles = 400_000 * int64(cfg.CPUFreqMHz) / int64(cfg.MemFreqMHz)
			spec := attack.Spec{Kind: attack.DoubleSided, Records: 2_048, Seed: 5, DutyCycle: 0.25}
			tr, _, err := spec.Synthesize(cfg.Geo, attack.Target{Bank: 0, Row: 512})
			if err != nil {
				b.Fatal(err)
			}
			return cfg, trace.Mix{Name: "paced", Traces: []*trace.Trace{tr}}
		}},
	}
	drivers := []struct {
		name string
		run  func(Config, trace.Mix) (*Result, error)
	}{
		{"event", Run},
		{"cycle", runReference},
	}
	for _, sh := range shapes {
		for _, d := range drivers {
			b.Run(sh.name+"/"+d.name, func(b *testing.B) {
				cfg, mix := sh.mk(b)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := d.run(cfg, mix)
					if err != nil {
						b.Fatal(err)
					}
					if res.Ctrl.Reads == 0 {
						b.Fatal("no DRAM reads")
					}
				}
			})
		}
	}
}
