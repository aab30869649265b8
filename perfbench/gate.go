package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/core"
)

// committed maps spec hash → SHA-256 of the canonical result bytes, for
// every spec the benchmark generates at defaultSeed (full and tiny
// sizes). Regenerate with --print-digests, under both RH_ENGINE values.
//
//go:embed digests.json
var committedJSON []byte

// gate is the output check every run applies. It counts each operation
// the benchmark attempts and each that failed: an error, a non-2xx
// answer, or bytes that differ from what they must be.
type gate struct {
	mu        sync.Mutex
	expected  map[string]string // spec hash → result digest; nil off the default seed
	seen      map[string]string // spec hash → first digest this run
	attempted int64
	failed    int64
	errs      []string
}

func newGate(seed uint64) (*gate, error) {
	g := &gate{seen: map[string]string{}}
	if seed == defaultSeed {
		if err := json.Unmarshal(committedJSON, &g.expected); err != nil {
			return nil, fmt.Errorf("digests.json: %w", err)
		}
	}
	return g, nil
}

func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// op records one attempted operation; a non-nil err fails it.
func (g *gate) op(err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err == nil {
		return true
	}
	g.failed++
	if len(g.errs) < 8 {
		g.errs = append(g.errs, err.Error())
	}
	return false
}

// requireCommitted fails the run at defaultSeed for each spec that has
// no committed digest, so a change in spec generation cannot silently
// switch the digest check off.
func (g *gate) requireCommitted(specs ...core.ExperimentSpec) {
	if g.expected == nil {
		return
	}
	for _, sp := range specs {
		hash, err := sp.SpecHash()
		if err == nil {
			if _, ok := g.expected[hash]; !ok {
				err = fmt.Errorf("%s %s: no committed digest for this spec", sp.Name, hash[:12])
			}
		}
		g.op(err)
	}
}

// result checks one computed result: the bytes must be the canonical,
// complete result of spec, must equal every earlier result of spec in
// this run, and must match the committed digest where one exists.
func (g *gate) result(spec core.ExperimentSpec, raw []byte) bool {
	return g.op(g.check(spec, raw))
}

func (g *gate) check(spec core.ExperimentSpec, raw []byte) error {
	hash, err := spec.SpecHash()
	if err != nil {
		return err
	}
	res, err := core.DecodeResult(raw)
	if err != nil {
		return fmt.Errorf("%s %s: %w", spec.Name, hash[:12], err)
	}
	want, _ := spec.Encode()
	got, _ := res.Spec.Encode()
	if !bytes.Equal(want, got) || !res.Complete() {
		return fmt.Errorf("%s %s: result is not the complete result of its spec", spec.Name, hash[:12])
	}
	d := digest(raw)
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, ok := g.seen[hash]; ok && prev != d {
		return fmt.Errorf("%s %s: result digest %s differs from %s earlier in the run", spec.Name, hash[:12], d[:12], prev[:12])
	}
	g.seen[hash] = d
	if exp, ok := g.expected[hash]; ok && exp != d {
		return fmt.Errorf("%s %s: result digest %s, committed %s", spec.Name, hash[:12], d[:12], exp[:12])
	}
	return nil
}

func (g *gate) counts() (attempted, failed int64, errs []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.attempted, g.failed, append([]string(nil), g.errs...)
}
