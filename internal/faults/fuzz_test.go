package faults_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/paired"
)

// FuzzParse feeds arbitrary JSON to the fault-plan decoder, which reads
// operator-supplied files: it must never panic, and a plan it accepts must
// re-encode to JSON that parses back to an equal plan. The built-in sweep
// plans seed the corpus. Run with
// `go test -fuzz=FuzzParse ./internal/faults/`.
func FuzzParse(f *testing.F) {
	for _, np := range paired.BuiltinFaultPlans() {
		data, err := json.Marshal(np.Plan)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"seed":1,"faults":[{"kind":"pong_dup","server":-1,"at_ms":0,"dups":2}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		plan, err := faults.Parse(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(plan)
		if err != nil {
			t.Fatalf("encoding an accepted plan: %v", err)
		}
		back, err := faults.Parse(again)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", again, err)
		}
		if !reflect.DeepEqual(back, plan) {
			t.Fatalf("round trip changed the plan:\n got %+v\nwant %+v", back, plan)
		}
	})
}
