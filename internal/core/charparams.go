// Package core orchestrates the paper's experiments: it iterates chip
// populations through the charact measurement primitives and the sim
// mitigation harness, aggregates per-configuration statistics, and
// formats each of the paper's tables and figures (EXPERIMENTS.md compares
// each with the paper).
package core

import (
	"fmt"
	"sort"

	"repro/internal/chips"
	"repro/internal/dram"
	"repro/internal/faultmodel"
)

// ConfigKey identifies one cell of the paper's per-configuration tables.
type ConfigKey struct {
	Node chips.TypeNode
	Mfr  string
}

func (k ConfigKey) String() string { return fmt.Sprintf("%v/Mfr.%s", k.Node, k.Mfr) }

// ConfigKeys lists the populated configurations in the paper's order.
func ConfigKeys() []ConfigKey {
	var keys []ConfigKey
	for _, tn := range chips.TypeNodes {
		for _, mfr := range chips.Manufacturers {
			if chips.HasConfiguration(tn, mfr) {
				keys = append(keys, ConfigKey{Node: tn, Mfr: mfr})
			}
		}
	}
	return keys
}

// chipsByConfig groups population chips per configuration, capped at
// maxPerConfig (0 = no cap) keeping the weakest chips first (the paper's
// representative chips are the interesting, flippable ones).
func chipsByConfig(pop *chips.Population, maxPerConfig int) map[ConfigKey][]chips.ChipSpec {
	m := make(map[ConfigKey][]chips.ChipSpec)
	for _, c := range pop.Chips {
		k := ConfigKey{Node: c.Node, Mfr: c.Mfr}
		m[k] = append(m[k], c)
	}
	//rhlint:allow mapiter(independent per-key in-place rewrite)
	for k, list := range m {
		// Stable sort with a chip-ID tie-break: equal-HCFirst chips must
		// not depend on incidental input order, or capped selection below
		// would be irreproducible.
		sort.SliceStable(list, func(i, j int) bool {
			if list[i].HCFirst != list[j].HCFirst {
				return list[i].HCFirst < list[j].HCFirst
			}
			return list[i].Name < list[j].Name
		})
		if maxPerConfig > 0 && len(list) > maxPerConfig {
			list = list[:maxPerConfig]
		}
		m[k] = list
	}
	return m
}

// representative returns the chip the per-chip figures use: the weakest
// (most RowHammerable) chip of the configuration.
func representative(specs []chips.ChipSpec) (chips.ChipSpec, bool) {
	if len(specs) == 0 {
		return chips.ChipSpec{}, false
	}
	best := specs[0]
	for _, s := range specs[1:] {
		if s.HCFirst < best.HCFirst {
			best = s
		}
	}
	return best, true
}

// patternName renders a pattern like the paper's tables ("RowStripe0").
func patternName(p faultmodel.Pattern) string { return p.String() }

// CharParams is the parameter block of every characterization
// experiment in the registry. The zero value means the CLI-scale
// defaults: the small geometry, every module, at most 4 chips per
// configuration, every victim row, each experiment's paper iteration
// count.
type CharParams struct {
	// Scale names a predefined geometry and instantiation cap: tiny,
	// small (default), medium, full.
	Scale string `json:"scale,omitempty"`
	// CustomScale overrides Scale with an explicit geometry.
	CustomScale *chips.Scale `json:"custom_scale,omitempty"`
	// Modules names the population: all (default), ddr3, ddr4, lpddr4.
	Modules string `json:"modules,omitempty"`
	// Chips caps instantiated chips per (type-node, manufacturer)
	// configuration, keeping the weakest: 0 means the default cap (4),
	// -1 means every chip.
	Chips int `json:"chips,omitempty"`
	// Stride samples victim rows in full-chip sweeps (0 or 1 = every row).
	Stride int `json:"stride,omitempty"`
	// Iterations for repeated-measurement experiments (Figure 4's 10,
	// Table 5's 20); 0 keeps each experiment's paper default.
	Iterations int `json:"iterations,omitempty"`
}

// defaultChipsPerConfig is the per-configuration chip cap that chips 0
// selects.
const defaultChipsPerConfig = 4

// Validate rejects unknown scale and module-set names and out-of-domain
// counts at spec decode, so a bad characterization spec fails before it
// gets a content address.
func (p *CharParams) Validate() error {
	if _, ok := scalesByName[p.Scale]; !ok && p.Scale != "" {
		return fmt.Errorf("core: unknown scale %q (tiny, small, medium, full)", p.Scale)
	}
	if _, ok := moduleSets[p.Modules]; !ok {
		return fmt.Errorf("core: unknown module set %q (all, ddr3, ddr4, lpddr4)", p.Modules)
	}
	if p.Chips < -1 {
		return fmt.Errorf("core: chips %d must be -1 (every chip), 0 (the default cap) or positive", p.Chips)
	}
	if err := p.validateCustomScale(); err != nil {
		return fmt.Errorf("core: custom_scale: %w", err)
	}
	return checkCounts("characterization",
		countParam{"stride", int64(p.Stride)}, countParam{"iterations", int64(p.Iterations)})
}

// validateCustomScale checks an explicit geometry against the rules
// faultmodel.NewChip applies to every chip of the module set, so a
// geometry no chip can be built at fails at decode, not inside a task.
// LPDDR4 chips add on-die ECC (128-bit row multiples) and, for Mfr B's
// 1x node, paired wordlines (an even row count).
func (p *CharParams) validateCustomScale() error {
	sc := p.CustomScale
	if sc == nil {
		return nil
	}
	if sc.ChipsPerModule < 0 {
		return fmt.Errorf("ChipsPerModule %d must not be negative (0 means every chip)", sc.ChipsPerModule)
	}
	cfg := faultmodel.Config{Banks: sc.Banks, Rows: sc.Rows, RowBits: sc.RowBits, HCFirst: 1}
	for _, m := range moduleSets[p.Modules]() {
		if m.Node.Type == dram.LPDDR4 {
			cfg.OnDieECC = true
			cfg.PairedWordlines = true
			break
		}
	}
	return cfg.Validate()
}

// scalesByName maps the predefined geometry names.
var scalesByName = map[string]chips.Scale{
	"tiny":   chips.ScaleTiny,
	"small":  chips.ScaleSmall,
	"medium": chips.ScaleMedium,
	"full":   chips.ScaleFull,
}

// moduleSets maps the named population sets to their module lists.
// Validate checks names against it without building a list, which keeps
// spec decode (every warm store hit) cheap.
var moduleSets = map[string]func() []chips.ModuleSpec{
	"":       chips.AllModules,
	"all":    chips.AllModules,
	"ddr3":   chips.DDR3Modules,
	"ddr4":   chips.DDR4Modules,
	"lpddr4": chips.LPDDR4Modules,
}
