package deploy

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

// FuzzParseArtifact feeds arbitrary JSON to the deploy-plan artifact
// decoder, which reads operator-supplied files: it must never panic, an
// artifact it accepts must satisfy Validate with no negative purchase
// count, and Encode → Parse must give back an equal artifact. Run with
// `go test -fuzz=FuzzParseArtifact ./internal/deploy/`.
func FuzzParseArtifact(f *testing.F) {
	plan, err := PlanPurchase(SyntheticCatalogue(), 5500, 0.075, PlanOptions{MinServers: 3})
	if err != nil {
		f.Fatal(err)
	}
	placements, err := PlaceServers(plan, nil)
	if err != nil {
		f.Fatal(err)
	}
	var seed bytes.Buffer
	w := Workload{TestsPerDay: 200000, AvgTestDuration: 1200 * time.Millisecond, AvgBandwidth: 40}
	if err := NewArtifact(w, plan, placements).Encode(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte(`{"schema":"swiftest-deploy-plan/v1","plan":{"Purchases":[{"Config":{"Name":"a"},"Count":-5},{"Config":{"Name":"b"},"Count":6}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ParseArtifact(data)
		if err != nil {
			return
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("accepted artifact fails Validate: %v", err)
		}
		for _, pu := range a.Plan.Purchases {
			if pu.Count < 0 {
				t.Fatalf("accepted negative purchase count %d", pu.Count)
			}
		}
		var buf bytes.Buffer
		if err := a.Encode(&buf); err != nil {
			t.Fatalf("accepted artifact fails to encode: %v", err)
		}
		again, err := ParseArtifact(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded artifact rejected: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(a, again) {
			t.Fatalf("round trip changed the artifact:\n%+v\n%+v", a, again)
		}
	})
}
