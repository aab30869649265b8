package core

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	spec, err := NewSpec("attack", 7, AttackParams{
		Mechanisms: []MechanismID{MechNone, MechIdeal},
		HCSweep:    []int{512},
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSpec(enc)
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Errorf("encode/decode/encode not stable:\n%s\nvs\n%s", enc, enc2)
	}
	if dec.Name != "attack" || dec.Seed != 7 {
		t.Errorf("round-trip lost fields: %+v", dec)
	}
}

func TestSpecSeedAndShardNormalization(t *testing.T) {
	spec, err := DecodeSpec([]byte(`{"name":"table1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 1 {
		t.Errorf("seed = %d, want 1 (zero normalizes)", spec.Seed)
	}
	if spec.Shard != (Shard{Index: 0, Count: 1}) {
		t.Errorf("shard = %+v, want 0/1", spec.Shard)
	}
}

func TestSpecUnknownNameError(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"name":"figure99"}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown name error = %v, want unknown-experiment", err)
	}
	if _, err := NewSpec("nope", 1, nil); err == nil {
		t.Error("NewSpec accepted an unregistered name")
	}
}

func TestSpecBadShardError(t *testing.T) {
	for _, bad := range []string{
		`{"name":"table1","shard":{"index":2,"count":2}}`,
		`{"name":"table1","shard":{"index":-1,"count":4}}`,
	} {
		if _, err := DecodeSpec([]byte(bad)); err == nil ||
			!strings.Contains(err.Error(), "shard") {
			t.Errorf("%s: error = %v, want shard validation failure", bad, err)
		}
	}
	for _, bad := range []string{"3", "a/b", "4/2", "-1/2", "1/0"} {
		if _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
	s, err := ParseShard("2/8")
	if err != nil || s.Index != 2 || s.Count != 8 {
		t.Errorf("ParseShard(2/8) = %+v, %v", s, err)
	}
}

func TestSpecUnknownParamFieldError(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"name":"fig5","params":{"scael":"tiny"}}`)); err == nil ||
		!strings.Contains(err.Error(), "params") {
		t.Errorf("typoed param error = %v, want bad-params", err)
	}
	// Params of another experiment family must not validate.
	if _, err := DecodeSpec([]byte(`{"name":"fig5","params":{"mem_cycles":1000}}`)); err == nil {
		t.Error("fig5 accepted attack params")
	}
}

func TestParetoParamsRejectNonPositiveBLISSAxes(t *testing.T) {
	for _, bad := range []string{
		`{"name":"pareto","params":{"bliss_streaks":[0]}}`,
		`{"name":"pareto","params":{"bliss_streaks":[-2]}}`,
		`{"name":"pareto","params":{"bliss_clears":[0,10000]}}`,
	} {
		if _, err := DecodeSpec([]byte(bad)); err == nil ||
			!strings.Contains(err.Error(), "not positive") {
			t.Errorf("%s: error = %v, want non-positive axis rejection", bad, err)
		}
	}
	if _, err := DecodeSpec([]byte(`{"name":"pareto","params":{"bliss_streaks":[2,8]}}`)); err != nil {
		t.Errorf("positive axes rejected: %v", err)
	}
}

// TestAttackPacingSpecValidation pins the bugfix at the spec layer:
// out-of-range duty_cycle/phase inside the attack/pareto families' attack
// block must fail strict decode with a clear error, not silently run an
// unpaced stream. The same holds for non-positive HCfirst points,
// negative counts and too-small rows overrides in the fig10/attack/pareto
// params, and for unknown names and out-of-domain counts in the
// characterization params.
func TestAttackPacingSpecValidation(t *testing.T) {
	bad := []struct{ spec, want string }{
		{`{"name":"fig10","params":{"hc":[2000,0]}}`, "hc"},
		{`{"name":"fig10","params":{"hc":[-256]}}`, "hc"},
		{`{"name":"fig10","params":{"mixes":-1}}`, "mixes"},
		{`{"name":"fig10","params":{"cores":-2}}`, "cores"},
		{`{"name":"fig10","params":{"trace_records":-800}}`, "trace_records"},
		{`{"name":"fig10","params":{"warmup_insts":-1}}`, "warmup_insts"},
		{`{"name":"fig10","params":{"measure_insts":-5000}}`, "measure_insts"},
		{`{"name":"attack","params":{"hc":[0]}}`, "hc"},
		{`{"name":"attack","params":{"benign_cores":-1}}`, "benign_cores"},
		{`{"name":"attack","params":{"trace_records":-1}}`, "trace_records"},
		{`{"name":"attack","params":{"mem_cycles":-150000}}`, "mem_cycles"},
		{`{"name":"attack","params":{"rows":-1024}}`, "rows"},
		{`{"name":"attack","params":{"attack_records":-1}}`, "attack_records"},
		{`{"name":"pareto","params":{"hc":[512,0]}}`, "hc"},
		{`{"name":"pareto","params":{"benign_cores":-2}}`, "benign_cores"},
		{`{"name":"pareto","params":{"trace_records":-1}}`, "trace_records"},
		{`{"name":"pareto","params":{"mem_cycles":-1}}`, "mem_cycles"},
		{`{"name":"pareto","params":{"rows":-4096}}`, "rows"},
		{`{"name":"pareto","params":{"attack_records":-1}}`, "attack_records"},
		{`{"name":"attack","params":{"rows":3}}`, "rows"},
		{`{"name":"attack","params":{"rows":8}}`, "rows"},
		{`{"name":"pareto","params":{"rows":15}}`, "rows"},
		{`{"name":"fig5","params":{"scale":"huge"}}`, "scale"},
		{`{"name":"fig5","params":{"modules":"ddr5"}}`, "module set"},
		{`{"name":"table5","params":{"stride":-3}}`, "stride"},
		{`{"name":"table5","params":{"chips":-7}}`, "chips"},
		{`{"name":"table5","params":{"iterations":-2}}`, "iterations"},
		{`{"name":"attack","params":{"attack":{"duty_cycle":1.5}}}`, "duty_cycle"},
		{`{"name":"attack","params":{"attack":{"duty_cycle":1}}}`, "duty_cycle"},
		{`{"name":"attack","params":{"attack":{"duty_cycle":-0.25}}}`, "duty_cycle"},
		{`{"name":"attack","params":{"attack":{"duty_cycle":0.5,"phase":1.25}}}`, "phase"},
		{`{"name":"pareto","params":{"attack":{"duty_cycle":2}}}`, "duty_cycle"},
		{`{"name":"pareto","params":{"attack":{"phase":-0.5}}}`, "phase"},
		// Phase without duty_cycle would be a silent no-op: rejected too.
		{`{"name":"attack","params":{"attack":{"phase":0.5}}}`, "phase"},
		// Names the cell builders do not know, and axes whose grid repeats
		// a task key, used to pass decode and fail inside task 0.
		{`{"name":"fig10","params":{"mechanisms":["Bogus"]}}`, "mechanisms"},
		{`{"name":"attack","params":{"mechanisms":["PARA","Bogus"]}}`, "mechanisms"},
		{`{"name":"pareto","params":{"mechanisms":["Bogus"]}}`, "mechanisms"},
		{`{"name":"attack","params":{"scheduler":"LIFO"}}`, "scheduler"},
		{`{"name":"pareto","params":{"schedulers":["FR-FCFS","LIFO"]}}`, "schedulers"},
		{`{"name":"attack","params":{"patterns":["nope"]}}`, "patterns"},
		{`{"name":"pareto","params":{"patterns":["double-sided","nope"]}}`, "patterns"},
		{`{"name":"fig10","params":{"mechanisms":["PARA","PARA"]}}`, "duplicate task key"},
		{`{"name":"fig10","params":{"hc":[2000,2000]}}`, "duplicate task key"},
		{`{"name":"attack","params":{"hc":[512,512]}}`, "duplicate task key"},
		{`{"name":"attack","params":{"patterns":["decoy","decoy"]}}`, "duplicate task key"},
		{`{"name":"pareto","params":{"bliss_streaks":[8,8]}}`, "duplicate task key"},
		{`{"name":"pareto","params":{"schedulers":["","FR-FCFS"]}}`, "duplicate task key"},
	}
	for _, b := range bad {
		if _, err := DecodeSpec([]byte(b.spec)); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Errorf("%s: error = %v, want mention of %q", b.spec, err, b.want)
		}
	}
	for _, good := range []string{
		`{"name":"attack","params":{"attack":{"duty_cycle":0.5,"phase":0.25}}}`,
		`{"name":"pareto","params":{"attack":{"duty_cycle":0.99}}}`,
		`{"name":"fig10","params":{"mixes":0,"hc":[2000,256]}}`,
		`{"name":"attack","params":{"rows":0,"benign_cores":0,"hc":[512]}}`,
		`{"name":"attack","params":{"rows":16}}`,
		`{"name":"attack","params":{"scheduler":"BLISS","mechanisms":["TRR","BlockHammer-binary"],"patterns":["scattered"]}}`,
		`{"name":"pareto","params":{"schedulers":["BLISS"],"bliss_streaks":[4,8],"bliss_clears":[5000]}}`,
		`{"name":"pareto","params":{"rows":17}}`,
		`{"name":"table5","params":{"scale":"tiny","modules":"lpddr4","chips":-1,"stride":0,"iterations":0}}`,
	} {
		if _, err := DecodeSpec([]byte(good)); err != nil {
			t.Errorf("%s: rejected: %v", good, err)
		}
	}
}

func TestShardPartitionCoversGridExactlyOnce(t *testing.T) {
	keys := []string{
		"DDR4-new/Mfr.A/K4-chip00", "DDR4-old/Mfr.C/K9-chip01",
		"mech=PARA/sched=FR-FCFS/pat=decoy/hc=512",
		"mech=None/sched=BLISS[s=8,c=20000]/hc=4800/pat=benign-only",
		"census", "modules", "a", "b", "c", "d", "e", "f",
	}
	for count := 1; count <= 5; count++ {
		for _, key := range keys {
			owners := 0
			for idx := 0; idx < count; idx++ {
				if (Shard{Index: idx, Count: count}).owns(key) {
					owners++
				}
			}
			if owners != 1 {
				t.Errorf("count=%d key=%q owned by %d shards, want exactly 1", count, key, owners)
			}
		}
	}
}

func TestExperimentsListing(t *testing.T) {
	infos := Experiments()
	if len(infos) != len(registry) {
		t.Fatalf("Experiments() lists %d of %d registered", len(infos), len(registry))
	}
	for _, want := range []string{"table1", "table8", "fig4", "fig10", "attack", "pareto", "trr-dodge"} {
		found := false
		for _, e := range infos {
			if e.Name == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry missing %q", want)
		}
	}
	// The listing order is canonical and leads with the paper order.
	if infos[0].Name != "table1" || infos[len(infos)-1].Name != "trr-dodge" {
		t.Errorf("unexpected listing order: first=%s last=%s", infos[0].Name, infos[len(infos)-1].Name)
	}
}

func TestResultIncompleteArtifactError(t *testing.T) {
	spec, err := NewSpec("table2", 1, CharParams{Scale: "tiny", Chips: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec.Shard = Shard{Index: 0, Count: 3}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete() {
		t.Skip("shard 0/3 happened to own every task")
	}
	if _, err := res.Artifact(); err == nil {
		t.Error("Artifact() succeeded on an incomplete shard result")
	}
}

func TestMergeRejectsMismatchedSpecs(t *testing.T) {
	specA, _ := NewSpec("table1", 1, nil)
	specB, _ := NewSpec("table1", 2, nil)
	a, err := Run(specA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(specB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Merge(b); err == nil {
		t.Error("merge accepted results of different seeds")
	}
	if merged, err := a.Merge(a); err != nil || !merged.Complete() {
		t.Errorf("self-merge (idempotent union) failed: %v", err)
	}
}

// The -set tests below pin ApplySets, the override path behind
// `rhx run -set` and `rhx spec -set`.

func TestApplySetsWithoutSetsKeepsSpecBytes(t *testing.T) {
	// Params out of struct-field order: re-emitting them would reorder
	// the keys and change the hash, so no -set must not re-emit.
	spec, err := DecodeSpec([]byte(`{"name":"fig5","seed":7,"params":{"iterations":2,"chips":2,"scale":"tiny"}}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []ExperimentSpec{spec, mustSpec(t, "attack", 1, nil)} {
		want, _ := s.Encode()
		got, err := ApplySets(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if enc, _ := got.Encode(); !bytes.Equal(enc, want) {
			t.Errorf("ApplySets(nil) changed the spec:\n%s\nwant\n%s", enc, want)
		}
	}
}

func TestApplySetsMatchesSpecFile(t *testing.T) {
	// The CI attack smoke's spec file, built from flags instead.
	file, err := DecodeSpec([]byte(`{"name":"attack","seed":7,"params":{
		"patterns":["double-sided","scattered"],"mechanisms":["None","Ideal"],"hc":[512],
		"benign_cores":2,"trace_records":800,"mem_cycles":150000,"rows":1024}}`))
	if err != nil {
		t.Fatal(err)
	}
	sets := []string{
		`patterns=["double-sided","scattered"]`, `mechanisms=["None","Ideal"]`, "hc=[512]",
		"benign_cores=2", "trace_records=800", "mem_cycles=150000", "rows=1024",
	}
	want := hashOf(t, file)
	// Every rotation of the flag order gives the same content address.
	for i := range sets {
		rotated := append(append([]string{}, sets[i:]...), sets[:i]...)
		got, err := ApplySets(mustSpec(t, "attack", 7, nil), rotated)
		if err != nil {
			t.Fatal(err)
		}
		if h := hashOf(t, got); h != want {
			t.Errorf("sets %v: hash %s, want the spec file's %s", rotated, h, want)
		}
	}
	// A spec file with "params": null takes overrides like one without.
	null, err := DecodeSpec([]byte(`{"name":"attack","seed":7,"params":null}`))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ApplySets(null, sets); err != nil || hashOf(t, got) != want {
		t.Errorf(`"params": null with sets: %v, want the spec file's hash`, err)
	}
	// A non-JSON value is a string; a later -set replaces a file's value.
	got, err := ApplySets(mustSpec(t, "fig5", 1, CharParams{Scale: "small", Chips: 2}), []string{"scale=tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if h, want := hashOf(t, got), hashOf(t, mustSpec(t, "fig5", 1, CharParams{Scale: "tiny", Chips: 2})); h != want {
		t.Errorf("scale=tiny over a file: hash %s, want %s", h, want)
	}
}

func TestApplySetsRejectsLikeSpecFile(t *testing.T) {
	// A mistyped key fails exactly as the same typo in a spec file.
	_, fileErr := DecodeSpec([]byte(`{"name":"fig5","params":{"scael":"tiny"}}`))
	_, setErr := ApplySets(mustSpec(t, "fig5", 1, nil), []string{"scael=tiny"})
	if fileErr == nil || setErr == nil || fileErr.Error() != setErr.Error() {
		t.Errorf("typo: -set error %v, spec file error %v; want the same error", setErr, fileErr)
	}
	for _, bad := range []struct {
		name string
		set  string
		want string
	}{
		{"fig5", "chips=many", "cannot unmarshal"}, // string into int
		{"fig10", "hc=2000", "cannot unmarshal"},   // number into []int
		{"attack", "ecc=1", "cannot unmarshal"},    // number into bool
		{"fig10", "hc=[0]", "not positive"},        // Validate runs too
		{"attack", "rows=-1", "must not be negative"},
		{"fig5", "scale=huge", "unknown scale"},
		{"fig5", "chips", "key=value"},
		{"fig5", "=2", "key=value"},
		// Geometries faultmodel.NewChip cannot build fail at decode.
		{"fig5", `custom_scale={"Banks":1,"Rows":256,"RowBits":7}`, "custom_scale"},
		{"fig5", `custom_scale={"Banks":1,"Rows":1,"RowBits":1024}`, "custom_scale"},
		{"fig5", `custom_scale={"Banks":1,"Rows":-256,"RowBits":1024}`, "custom_scale"},
		{"fig5", `custom_scale={"Banks":0,"Rows":256,"RowBits":1024}`, "custom_scale"},
		{"table4", `custom_scale={"Banks":1,"Rows":256,"RowBits":1024,"ChipsPerModule":-1}`, "custom_scale"},
		// The default module set includes on-die-ECC LPDDR4 chips.
		{"fig5", `custom_scale={"Banks":1,"Rows":256,"RowBits":192}`, "custom_scale"},
	} {
		if _, err := ApplySets(mustSpec(t, bad.name, 1, nil), []string{bad.set}); err == nil ||
			!strings.Contains(err.Error(), bad.want) {
			t.Errorf("%s -set %s: error %v, want mention of %q", bad.name, bad.set, err, bad.want)
		}
	}
	if _, err := ApplySets(mustSpec(t, "fig5", 1, nil),
		[]string{"modules=ddr3", `custom_scale={"Banks":1,"Rows":256,"RowBits":192}`}); err != nil {
		t.Errorf("a 64-bit-multiple row on a module set without on-die ECC was rejected: %v", err)
	}
	if _, err := ApplySets(mustSpec(t, "fig5", 1, nil), []string{"chips=1", "chips=2"}); err == nil {
		t.Error("a key set twice was accepted (the flag order would pick the value)")
	}
}

// TestParamKeysSettable pins the listing behind `rhx list -v` and
// GET /v1/registry: every experiment lists its params keys, and each
// listed key is one -set accepts and keeps.
func TestParamKeysSettable(t *testing.T) {
	valid := map[string]string{
		"scale": "tiny", "custom_scale": `{"Banks":1,"Rows":256,"RowBits":1024,"ChipsPerModule":1}`,
		"modules": "ddr4", "chips": "2", "stride": "2", "iterations": "2",
		"mixes": "2", "cores": "2", "trace_records": "800", "warmup_insts": "1000", "measure_insts": "1000",
		"hc": "[512]", "trr-dodge.hc": "512", "mechanisms": `["PARA"]`, "patterns": `["decoy"]`,
		"scheduler": "BLISS", "schedulers": `["BLISS"]`, "benign_cores": "2", "mem_cycles": "150000",
		"rows": "1024", "attack_records": "100", "ecc": "true", "attack": `{"duty_cycle":0.5}`,
		"bliss_streaks": "[2]", "bliss_clears": "[5000]", "duty_cycles": "[0,0.25]", "phases": "[0.5]",
		"sample_rates": "[0.25]", "table_sizes": "[2]",
	}
	for _, e := range Experiments() {
		if len(e.ParamKeys) == 0 {
			t.Errorf("%s lists no params keys", e.Name)
		}
		for _, key := range e.ParamKeys {
			v, ok := valid[e.Name+"."+key]
			if !ok {
				v, ok = valid[key]
			}
			if !ok {
				t.Errorf("%s: no valid test value for listed key %q", e.Name, key)
				continue
			}
			spec, err := ApplySets(mustSpec(t, e.Name, 1, nil), []string{key + "=" + v})
			if err != nil {
				t.Errorf("%s -set %s=%s: %v", e.Name, key, v, err)
				continue
			}
			if !bytes.Contains(spec.Params, []byte(`"`+key+`":`)) {
				t.Errorf("%s -set %s=%s: key missing from params %s", e.Name, key, v, spec.Params)
			}
		}
	}
}

func mustSpec(t *testing.T, name string, seed uint64, params any) ExperimentSpec {
	t.Helper()
	s, err := NewSpec(name, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func hashOf(t *testing.T, s ExperimentSpec) string {
	t.Helper()
	h, err := s.SpecHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}
