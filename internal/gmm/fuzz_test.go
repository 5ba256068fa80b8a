package gmm

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// FuzzModelJSON feeds arbitrary bytes to the model decoder behind
// swiftest.LoadModel, which reads operator-supplied files: it must never
// panic, a model it accepts must have finite weights summing to 1 ± 1e-9,
// and Marshal → Unmarshal must give back the identical model. Run with
// `go test -fuzz=FuzzModelJSON ./internal/gmm/`.
func FuzzModelJSON(f *testing.F) {
	f.Add([]byte(`{"version":1,"components":[{"weight":0.3,"mu":20,"sigma":5},{"weight":0.7,"mu":120,"sigma":30}]}`))
	f.Add([]byte(`{"version":1,"components":[{"weight":1e308,"mu":10,"sigma":1},{"weight":1e308,"mu":20,"sigma":1}]}`))
	// These weights normalise to a pair summing to 1 − 1 ulp, which a
	// second normalisation on reload moved.
	f.Add([]byte(`{"version":1,"components":[{"weight":9.364405867994597,"mu":2,"sigma":1.4},{"weight":4.221069999614152,"mu":3,"sigma":1.1}]}`))
	f.Add([]byte(`{"version":1,"components":[{"weight":1,"mu":5,"sigma":2},{"weight":1,"mu":5,"sigma":3},{"weight":1,"mu":5,"sigma":1}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var m Model
		if err := json.Unmarshal(data, &m); err != nil {
			return
		}
		var sum float64
		for _, c := range m.Components() {
			if math.IsNaN(c.Weight) || math.IsInf(c.Weight, 0) {
				t.Fatalf("accepted non-finite weight %g", c.Weight)
			}
			sum += c.Weight
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("accepted weights sum to %.17g", sum)
		}
		enc, err := json.Marshal(&m)
		if err != nil {
			t.Fatalf("accepted model fails to marshal: %v", err)
		}
		var again Model
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("re-encoded model rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(m.Components(), again.Components()) {
			t.Fatalf("round trip changed the model:\n%+v\n%+v", m.Components(), again.Components())
		}
	})
}
