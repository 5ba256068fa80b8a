package earlystop

import (
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary bytes to the model-artifact decoder, which reads
// operator-supplied artifacts: it must never panic, and an artifact it
// accepts must re-encode with Encode to bytes that parse back to an equal
// model. The embedded default model seeds the corpus. Run with
// `go test -fuzz=FuzzParse ./internal/earlystop/`.
func FuzzParse(f *testing.F) {
	f.Add(defaultModelJSON)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Parse(data)
		if err != nil {
			return
		}
		again, err := m.Encode()
		if err != nil {
			t.Fatalf("encoding an accepted model: %v", err)
		}
		back, err := Parse(again)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", again, err)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the model:\n got %+v\nwant %+v", back, m)
		}
	})
}
