package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// tinyCharParams keeps every characterization entry to one chip per
// configuration of the tiny geometry.
const tinyCharParams = `{"scale":"tiny","chips":1,"iterations":2}`

// digestSpecs is one tiny spec per registry entry: tiny chip scale with
// one chip per configuration, and one- or two-cell simulation grids on a
// shrunk geometry, so the whole table runs in a few seconds.
var digestSpecs = map[string]string{
	"table1": tinyCharParams,
	"table2": tinyCharParams,
	"fig4":   tinyCharParams,
	"table3": tinyCharParams,
	"fig5":   tinyCharParams,
	"fig6":   tinyCharParams,
	"fig7":   tinyCharParams,
	"fig8":   tinyCharParams,
	"table4": tinyCharParams,
	"fig9":   tinyCharParams,
	"table5": tinyCharParams,
	"table7": tinyCharParams,
	"table8": tinyCharParams,
	"fig10": `{"mixes":1,"cores":2,"trace_records":400,"warmup_insts":500,"measure_insts":2000,` +
		`"hc":[2000],"mechanisms":["PARA","Ideal"]}`,
	"attack": `{"patterns":["double-sided"],"mechanisms":["None","PARA"],"hc":[512],` +
		`"benign_cores":1,"trace_records":400,"mem_cycles":100000,"rows":1024}`,
	"pareto": `{"mechanisms":["PARA"],"schedulers":["FR-FCFS"],"patterns":["double-sided"],"hc":[512],` +
		`"benign_cores":1,"trace_records":400,"mem_cycles":100000,"rows":1024}`,
	"trr-dodge": `{"duty_cycles":[0,0.25],"phases":[0],"mem_cycles":100000,"rows":1024}`,
}

// goldenResultDigests pins the SHA-256 of Result.Encode() for each
// digestSpecs entry at seed 1. TestSpecHashGolden pins what a spec means
// as a cache key; this table pins what running it produces. A refactor
// that must not change results keeps every entry as is. A deliberate
// model change regenerates the table and says which experiments moved.
var goldenResultDigests = map[string]string{
	"table1":    "93c2d0d79f5674e9fbed5290f49609435d11d11d1948db696522e5ce07112ad4",
	"table2":    "9a617539a4e99e5a57c95f0540471b4b71532ed6ef0403370a296abb8c9abb57",
	"fig4":      "a55d027a1e4bb6971575df22b446c0cac7290972c3e274e62f5b8511035d4fd7",
	"table3":    "2846226177356f347523ac0bf99417f6578172deaa511cb29b3cc2ea27ca9e4b",
	"fig5":      "140fe3592854ee349854c89222003c013a60ee2b3ab98292c5ccc2c32462eace",
	"fig6":      "2b22ae0e93956b35ceacf5aa620024ec061bf53a41d28aaaf136fb86899ccccc",
	"fig7":      "8c80894ae1d952e0049ac65c7412eaa0d15a718ff9c554620e041526f0f5daa6",
	"fig8":      "9a54d437e168a8cabea441bb14869213393ef5b8aa5da16ba9734a79db4b18bd",
	"table4":    "0552999145097a95fba34cf30562b78b8b61b71f88ad605723d22f6ddbdbb6fd",
	"fig9":      "c8f2f00b2f9c058fb8342a9c9dc2100992274f498ec05e82f3b4be163cc70dc2",
	"table5":    "ae52610874eef2c3f4a049b70c2aad62762103e5eae48fb8468a19ca018716e5",
	"table7":    "eefcbcad78f34ef3ce24fb4f0d40892fb509fd0863caed142350cef380fb7562",
	"table8":    "ceb6af3c23ca162e15335c3aec4b9984996aa971444fb08f12c821a00404e290",
	"fig10":     "391fcb64ecc9c2653376d6ae78b1f921b0fb1b69a5440f664fed9eb2b47fb12d",
	"attack":    "9576cfb5094e4ebac3f037612a1769da1d3029e59034d18566e58938d2ac08a9",
	"pareto":    "6dce3e1434b5240b49ccfb62f749ed74c597cfb4ed0afcdba8b9e97861225fd7",
	"trr-dodge": "65571156b7455663ad60373e98a57e6d1662a31f0f4b100b912e6603207aa191",
}

// goldenFormatDigests pins the SHA-256 of res.Format() for the same
// specs: the rendered report, which finalize rebuilds from the result
// bytes. Same-bytes refactors of a finalize keep it as is.
var goldenFormatDigests = map[string]string{
	"table1":    "7f9c6088463a3bb707af058a6c8c76326f018666170c881ca36c2b0bfb01d92b",
	"table2":    "a206fa339b16ff45fb4193a2ae9a1c09543550bc4d747f03d967ac4be686e2ca",
	"fig4":      "3a24aed1223ad24a4f2dc9914cfe6b867181fb23a7912d55663b3c818ca1e3e5",
	"table3":    "6349439eab57491853020f38916635739771af73b5e72bc308993ab19eb0673f",
	"fig5":      "75e299a7bc490fd8b23e70a4e89395c8ac39c8029649af6a197c870bd39ca1d4",
	"fig6":      "e242ce4c2a67e896287c45c5824490ea37ca1f3e6e46f449713e05c3c16a79ae",
	"fig7":      "f764d09cc95051f192e950a1c2f83c033c5a704d0a5598fbc3633c13edf9def0",
	"fig8":      "8a60457237838161c8036546335f97b302f32a49271e4bcbf540a9972a60b06c",
	"table4":    "3af65c8b2526b7d125c10349b8dd281d8377f50bebe2363764ec78878e3e96bf",
	"fig9":      "739744b034a5f49692196181f17b01c3be00f2304b9c211f04adaedd7e29a182",
	"table5":    "2555e73f60637fb6fef3f1cdad7aa4931f45f7eea723b2514b6d5623036e0bd1",
	"table7":    "c192562e0c10891d399d8220f75f668ac231b0f9bea2483745ff97d18e96e691",
	"table8":    "4e6305346437cf5aeb5799696259b8c5d5c472ade53fe5f7a5712dfeb3005914",
	"fig10":     "d60eb1b81b376cb16387ca4cb7c952affbeaeddbcebfb2d3c64d0f1b0d5779f7",
	"attack":    "5a8765dd21ceeebfce409d3d1f90bca319f27c24881a61b7c8b9ceaf644661a4",
	"pareto":    "4a7060c0a490478811b24c73c123b08600fe3f03ee95927cf5eb86e706d370e2",
	"trr-dodge": "5df41d4c846941022338f1eea17f37b9728828b66e1ce749f4d26da395eaee28",
}

// TestResultDigestGolden runs every registry entry's tiny spec and
// compares the digests of its canonical result bytes and of its
// rendered report against the tables. An experiment without a pinned
// digest fails, like an unpinned spec hash does.
func TestResultDigestGolden(t *testing.T) {
	var mu sync.Mutex
	got, gotFormat := map[string]string{}, map[string]string{}
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		for _, tbl := range []map[string]string{got, gotFormat} {
			for _, e := range Experiments() {
				if d, ok := tbl[e.Name]; ok {
					t.Logf("\t%q: %q,", e.Name, d)
				}
			}
		}
	})
	seen := map[string]bool{}
	for _, e := range Experiments() {
		name := e.Name
		seen[name] = true
		params, ok := digestSpecs[name]
		if !ok {
			t.Errorf("experiment %q has no digest spec; add it to digestSpecs and goldenResultDigests", name)
			continue
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			spec, err := DecodeSpec([]byte(fmt.Sprintf(`{"name":%q,"seed":1,"params":%s}`, name, params)))
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := res.Encode()
			if err != nil {
				t.Fatal(err)
			}
			text, err := res.Format()
			if err != nil {
				t.Fatal(err)
			}
			d, df := sha256Hex(enc), sha256Hex([]byte(text))
			mu.Lock()
			got[name], gotFormat[name] = d, df
			mu.Unlock()
			if want, ok := goldenResultDigests[name]; !ok {
				t.Errorf("no golden result digest; pin %s", d)
			} else if d != want {
				t.Errorf("result digest = %s, want %s — the result bytes changed", d, want)
			}
			if want, ok := goldenFormatDigests[name]; !ok {
				t.Errorf("no golden format digest; pin %s", df)
			} else if df != want {
				t.Errorf("format digest = %s, want %s — the rendered report changed", df, want)
			}
		})
	}
	for name := range digestSpecs {
		if !seen[name] {
			t.Errorf("digest spec for %q names no registered experiment", name)
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
