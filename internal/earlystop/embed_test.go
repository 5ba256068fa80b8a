package earlystop

import (
	"bytes"
	"context"
	"testing"
)

// TestDefaultModelReproduces pins the embedded artifact to the pipeline
// that produced it: training with the flags documented in embed.go
// (-seed 7 -runs 6 -tolerance 0.15 -threshold 0.80, CLI defaults
// otherwise) must encode to default_model.json byte for byte.
func TestDefaultModelReproduces(t *testing.T) {
	m, _, err := TrainFromReplay(context.Background(),
		ReplayConfig{Runs: 6, Seed: 7, Tolerance: 0.15},
		TrainOptions{Threshold: 0.80})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, defaultModelJSON) {
		t.Fatalf("retrained model differs from default_model.json:\n%s\nvs embedded\n%s", got, defaultModelJSON)
	}
}
