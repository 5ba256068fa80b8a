package gmm

import (
	"encoding/json"
	"fmt"
)

// modelJSON is the stable on-disk representation of a Model: the §5.1
// deployment persists refreshed models and ships them to clients, so the
// format is explicit and versioned.
type modelJSON struct {
	Version    int             `json:"version"`
	Components []componentJSON `json:"components"`
}

type componentJSON struct {
	Weight float64 `json:"weight"`
	Mu     float64 `json:"mu"`
	Sigma  float64 `json:"sigma"`
}

const modelJSONVersion = 1

// MarshalJSON implements json.Marshaler.
func (m *Model) MarshalJSON() ([]byte, error) {
	out := modelJSON{Version: modelJSONVersion}
	for _, c := range m.components {
		out.Components = append(out.Components, componentJSON{Weight: c.Weight, Mu: c.Mu, Sigma: c.Sigma})
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler, validating the mixture the same
// way New does. Weights that already sum to one within 1e-9 — as every
// marshalled model's do — are kept as written, so Marshal → Unmarshal gives
// back the identical model instead of one renormalised by an ulp.
func (m *Model) UnmarshalJSON(b []byte) error {
	var in modelJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return fmt.Errorf("gmm: parsing model: %w", err)
	}
	if in.Version != modelJSONVersion {
		return fmt.Errorf("gmm: unsupported model version %d", in.Version)
	}
	comps := make([]Component, 0, len(in.Components))
	for _, c := range in.Components {
		comps = append(comps, Component{Weight: c.Weight, Mu: c.Mu, Sigma: c.Sigma})
	}
	parsed, err := build(comps, true)
	if err != nil {
		return err
	}
	*m = *parsed
	return nil
}
