package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// Every value in the result line must read back as a floating-point number
// with all its digits, also where encoding/json would write a bare integer.
func TestResultValuesAreDecimals(t *testing.T) {
	for _, v := range []float64{3, 1257802685833629200, 1e21, 0.362233700287059, 6539.414760378362, 1e-7} {
		buf, err := json.Marshal(outcome{Correct: true, Attempted: 1,
			Metrics: map[string]value{"m": {v, "s"}}})
		if err != nil {
			t.Fatal(err)
		}
		num := string(buf)[strings.Index(string(buf), `"value":`)+len(`"value":`):]
		num = num[:strings.Index(num, ",")]
		if !strings.ContainsAny(num, ".e") {
			t.Errorf("%v encodes as %s, a bare integer", v, num)
		}
		var back outcome
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatal(err)
		}
		if got := back.Metrics["m"]; got.Value != v || got.Unit != "s" {
			t.Errorf("%v round-trips as %+v", v, got)
		}
	}
	if _, err := json.Marshal(value{math.NaN(), "s"}); err == nil {
		t.Error("NaN encoded without an error")
	}
}
