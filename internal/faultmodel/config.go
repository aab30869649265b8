package faultmodel

import (
	"fmt"
	"math"

	"repro/internal/dram"
)

// Config describes one simulated DRAM chip's geometry and RowHammer
// vulnerability. The vulnerability parameters are calibrated per DRAM
// type-node configuration and manufacturer by package chips.
type Config struct {
	Name string    // e.g. "A-LPDDR4-1y-chip03"
	Type dram.Type // DDR3, DDR4, LPDDR4
	Node string    // "old", "new", "1x", "1y"
	Mfr  string    // "A", "B", "C"

	// Geometry. RowBits counts *data* bits per row; with on-die ECC the
	// raw row additionally stores 8 parity bits per 128 data bits.
	Banks   int
	Rows    int
	RowBits int

	// HCFirst is the chip's weakest-cell hammer threshold under its
	// worst-case data pattern: the quantity Table 4 and Figure 8 report.
	// One hammer = one activation to each of the two aggressor rows.
	HCFirst float64

	// Rate150k is the target fraction of cells that flip when every row
	// is double-sided hammered with HC = 150k under the worst-case data
	// pattern; together with HCFirst it pins the power-law exponent β of
	// Observation 4. Ignored when HCFirst ≥ 150k (Beta is used directly).
	Rate150k float64

	// Beta overrides the derived power-law exponent when positive.
	Beta float64

	// Gamma controls how sharply a cell's flip probability rises around
	// its threshold: P = 1 − 2^−(E/T)^Gamma. Defaults to 24, making the
	// 10%→90% transition span only a few percent of HC — what Table 5's
	// >97% monotonicity (20 trials, 5k HC steps) implies for real cells.
	Gamma float64

	// W3 and W5 are the aggressor coupling weights at odd wordline
	// distances 3 and 5, relative to the distance-1 weight of 0.5
	// (EXPERIMENTS.md, Figures 6/7). Zero means no coupling at that
	// distance; newer nodes have a wider blast radius (Observation 6).
	W3, W5 float64

	// WorstPattern is the chip's worst-case data pattern (Table 3).
	// PrefBias is the probability that a vulnerable cell prefers that
	// pattern rather than a uniformly random one. Defaults to 0.55.
	WorstPattern Pattern
	PrefBias     float64

	// ClusterP is the probability that a vulnerable site grows an extra
	// cell in the same 64-bit word (geometrically, capped at 4 cells),
	// with each extra cell's threshold multiplied by a uniform draw from
	// [ClusterLo, ClusterHi]. This reproduces the multi-bit words of
	// Figures 7 and 9. Defaults: 0.25, [1.4, 2.9].
	ClusterP             float64
	ClusterLo, ClusterHi float64

	// OnDieECC routes every read through a (136,128) single-error-
	// correcting code, as in all tested LPDDR4 chips.
	OnDieECC bool

	// PairedWordlines models the Mfr B LPDDR4-1x internal remapping where
	// logical rows 2k and 2k+1 share one physical wordline.
	PairedWordlines bool

	Seed uint64
}

// Defaults used when the corresponding Config field is zero.
const (
	DefaultGamma     = 24.0
	DefaultPrefBias  = 0.55
	DefaultClusterP  = 0.25
	DefaultClusterLo = 1.4
	DefaultClusterHi = 2.9
	DefaultBeta      = 3.0

	// thresholdCutoff is the largest hammer threshold instantiated as a
	// concrete vulnerable cell. Tests sweep HC ≤ 150k; with Gamma = 6 a
	// cell needs T ≤ ~1.4×E to have non-negligible flip probability, so
	// 400k covers every observable flip with margin.
	thresholdCutoff = 400_000.0

	// w1 is the coupling weight at wordline distance 1: each aggressor
	// contributes half a hammer per activation, so a double-sided hammer
	// (one ACT to each neighbor) contributes exactly one.
	w1 = 0.5

	// refHammers converts one hammer to the paper's reporting convention.
	hcReportUnit = 1000.0

	// minRows is the smallest bank NewChip can place its forced weakest
	// cell in: an even row drawn from [0, Rows/2), moved to row 2 when
	// the draw is row 0, so row 2 must exist.
	minRows = 3
)

// normalized returns cfg with defaults applied.
func (cfg Config) normalized() Config {
	if cfg.Gamma == 0 {
		cfg.Gamma = DefaultGamma
	}
	if cfg.PrefBias == 0 {
		cfg.PrefBias = DefaultPrefBias
	}
	if cfg.ClusterP == 0 {
		cfg.ClusterP = DefaultClusterP
	}
	if cfg.ClusterLo == 0 {
		cfg.ClusterLo = DefaultClusterLo
	}
	if cfg.ClusterHi == 0 {
		cfg.ClusterHi = DefaultClusterHi
	}
	return cfg
}

// Validate reports configuration errors.
func (cfg Config) Validate() error {
	switch {
	case cfg.Banks <= 0:
		return fmt.Errorf("faultmodel: banks must be positive, got %d", cfg.Banks)
	case cfg.Rows < minRows:
		return fmt.Errorf("faultmodel: rows must be at least %d, got %d", minRows, cfg.Rows)
	case cfg.RowBits <= 0 || cfg.RowBits%64 != 0:
		return fmt.Errorf("faultmodel: row bits must be a positive multiple of 64, got %d", cfg.RowBits)
	case cfg.HCFirst <= 0:
		return fmt.Errorf("faultmodel: HCFirst must be positive, got %g", cfg.HCFirst)
	case cfg.WorstPattern < 0 || cfg.WorstPattern >= NumPatterns:
		return fmt.Errorf("faultmodel: invalid worst pattern %d", int(cfg.WorstPattern))
	case cfg.OnDieECC && cfg.RowBits%128 != 0:
		return fmt.Errorf("faultmodel: on-die ECC requires row bits divisible by 128, got %d", cfg.RowBits)
	case cfg.PairedWordlines && cfg.Rows%2 != 0:
		return fmt.Errorf("faultmodel: paired wordlines require an even row count, got %d", cfg.Rows)
	}
	return nil
}

// beta returns the power-law exponent: the slope of log(#flips) vs
// log(HC) (Observation 4), derived so that a full-chip sweep at HC = 150k
// yields Rate150k flipped cells, or the explicit/default value.
func (cfg Config) beta() float64 {
	if cfg.Beta > 0 {
		return cfg.Beta
	}
	if cfg.HCFirst >= 150_000 || cfg.Rate150k <= 0 {
		return DefaultBeta
	}
	totalBits := float64(cfg.Banks) * float64(cfg.Rows) * float64(cfg.RowBits)
	b := math.Log(cfg.Rate150k*totalBits) / math.Log(150_000/cfg.HCFirst)
	if b < 1.2 {
		b = 1.2
	}
	if b > 6 {
		b = 6
	}
	return b
}

// TotalDataBits returns the chip's addressable data capacity in bits.
func (cfg Config) TotalDataBits() int64 {
	return int64(cfg.Banks) * int64(cfg.Rows) * int64(cfg.RowBits)
}
