package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric lists of ../BENCHMARK.json.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// runTiny runs one workload at the tiny size through the same code the
// command runs, and returns its exit code, output and summary line.
func runTiny(t *testing.T, w *workload, traced bool, corrupt func([]byte) []byte) (int, string, summary) {
	t.Helper()
	b, err := newBench(w, defaultSeed, 1, traced, true)
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(b.tmp)
	b.corrupt = corrupt
	var stdout, stderr bytes.Buffer
	code := b.execute(&stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("%s: last line is not the summary: %v\nstdout:\n%s\nstderr:\n%s", w.name, err, stdout.String(), stderr.String())
	}
	if code != 0 && corrupt == nil {
		t.Logf("stderr:\n%s", stderr.String())
	}
	return code, stdout.String(), sum
}

// TestWorkloadsReportDeclaredMetrics runs every workload's tiny variant,
// timed and traced, and requires exactly the metrics BENCHMARK.json
// declares, each printed by name with its unit, and no wrong output.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			code, out, sum := runTiny(t, w, traced, nil)
			if code != 0 || !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("%s traced=%v: exit %d, summary %+v", w.name, traced, code, sum)
			}
			for name, unit := range want {
				m, ok := sum.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s unit %q, declared %q", w.name, traced, name, m.Unit, unit)
				}
				if !strings.Contains(out, "metric: "+name+" ") {
					t.Errorf("%s traced=%v: metric %s not printed", w.name, traced, name)
				}
			}
			for name := range sum.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: undeclared metric %s", w.name, traced, name)
				}
			}
		}
	}
}

// TestGateCatchesCorruptByte flips one byte of every cold result: the
// run must count the failures, report correct=false and exit non-zero.
func TestGateCatchesCorruptByte(t *testing.T) {
	w, err := lookupWorkload("char-medium")
	if err != nil {
		t.Fatal(err)
	}
	flip := func(raw []byte) []byte {
		out := append([]byte(nil), raw...)
		i := bytes.LastIndexByte(out, '1')
		if i < 0 {
			t.Fatal("no digit to corrupt")
		}
		out[i] = '2'
		return out
	}
	code, _, sum := runTiny(t, w, false, flip)
	if code == 0 || sum.Correct || sum.Failed == 0 {
		t.Fatalf("corrupted result passed the gate: exit %d, summary %+v", code, sum)
	}
}
