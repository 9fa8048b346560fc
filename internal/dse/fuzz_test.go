package dse

import (
	"encoding/json"
	"testing"
)

// FuzzParseSweep drives the strict sweep-spec parser with arbitrary bytes.
// The parser must never panic, and every accepted spec must satisfy the
// round-trip fixed point: marshal re-parses, and a second marshal reproduces
// the first byte for byte (the property the spec digest and the journal
// header binding depend on). An accepted spec whose search block carries a
// negative beta must still fail validation.
func FuzzParseSweep(f *testing.F) {
	f.Add([]byte(`{"models": ["resnet50"]}`))
	f.Add([]byte(`{"name": "grid", "models": ["mobilenetv2"], "gbuf_mb": [2, 4],
		"seeds": [1, 2], "search": {"profile": "fast", "beta1": 2, "beta2": 1}}`))
	f.Add([]byte(`{"models": ["mobilenetv2"], "adaptive": {"budget": 3, "epsilon": 0.5, "explore": 1}}`))
	f.Add([]byte(`{"scenarios": ["multi-tenant-cnn"], "objectives": [{"n": 1, "m": 2}]}`))
	f.Add([]byte(`{"models": ["x"], "convergence": true, "workers": 3}`))
	f.Add([]byte(`{"models": ["resnet50"], "search": {"beta1": -5}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"models": ["a"]} trailing`))
	f.Add([]byte(`{"modles": ["a"]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := ParseSweep(data)
		if err != nil {
			return
		}
		b1, err := json.Marshal(sw)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		sw2, err := ParseSweep(b1)
		if err != nil {
			t.Fatalf("marshaled spec does not re-parse: %v\n%s", err, b1)
		}
		b2, err := json.Marshal(sw2)
		if err != nil {
			t.Fatal(err)
		}
		if string(b1) != string(b2) {
			t.Fatalf("round trip is not a fixed point:\n%s\n%s", b1, b2)
		}
		if s := sw.Search; s != nil && sw.Params == nil && (s.Beta1 < 0 || s.Beta2 < 0) {
			if sw.Validate() == nil {
				t.Fatalf("negative beta validated: %s", b1)
			}
		}
	})
}
