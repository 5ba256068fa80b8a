package ranprofile

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParse feeds arbitrary JSON to the profile-library decoder, which reads
// operator-supplied libraries: it must never panic, and a library it accepts
// must re-encode to JSON that parses back to equal profiles. The embedded
// library seeds the corpus. Run with
// `go test -fuzz=FuzzParse ./internal/ranprofile/`.
func FuzzParse(f *testing.F) {
	f.Add(embeddedLibrary)
	f.Add([]byte(`{"version":1,"profiles":[{"name":"p","tech":"4G","initial":"good",` +
		`"states":[{"name":"good","capacity_mbps":10,"mean_dwell_ms":100}],"transitions":{}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		profiles, err := Parse(data)
		if err != nil {
			return
		}
		again, err := json.Marshal(libraryFile{Version: 1, Profiles: profiles})
		if err != nil {
			t.Fatalf("encoding an accepted library: %v", err)
		}
		back, err := Parse(again)
		if err != nil {
			t.Fatalf("re-parsing %s: %v", again, err)
		}
		if !reflect.DeepEqual(back, profiles) {
			t.Fatalf("round trip changed the library:\n got %+v\nwant %+v", back, profiles)
		}
	})
}
