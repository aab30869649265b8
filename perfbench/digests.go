package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
)

// pinnedSpecs lists every spec whose result digest is committed: each
// workload's specs at both sizes, and the leading cold specs.
func pinnedSpecs(seed uint64) ([]core.ExperimentSpec, error) {
	var out []core.ExperimentSpec
	for _, w := range workloads {
		for _, tiny := range []bool{false, true} {
			specs, err := w.pinned(seed, tiny)
			if err != nil {
				return nil, err
			}
			out = append(out, specs...)
		}
	}
	return out, nil
}

// pinnedCold is how many leading cold specs have committed digests: at
// least every cold job a run recomputes or probes.
const pinnedCold = 20

// writeDigests computes every pinned spec at defaultSeed and prints the
// digests.json contents.
func writeDigests(w io.Writer) error {
	specs, err := pinnedSpecs(defaultSeed)
	if err != nil {
		return err
	}
	table := map[string]string{}
	for _, sp := range specs {
		hash, err := sp.SpecHash()
		if err != nil {
			return err
		}
		if _, done := table[hash]; done {
			continue
		}
		res, err := core.RunContext(context.Background(), sp, computeExec())
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Name, err)
		}
		raw, err := res.Encode()
		if err != nil {
			return err
		}
		table[hash] = digest(raw)
	}
	out, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
