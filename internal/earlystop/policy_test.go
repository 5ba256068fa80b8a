package earlystop

import (
	"context"
	"reflect"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/paired"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

func TestPolicyName(t *testing.T) {
	if got := NewPolicy(nil).Name(); got != "earlystop" {
		t.Errorf("Name() = %q, want earlystop", got)
	}
}

func TestPolicyCrossingFallbackWins(t *testing.T) {
	// A stream the crossing rule stops on: 10 trailing samples within 3 %.
	samples := []float64{10, 40, 80, 120}
	for i := 0; i < 10; i++ {
		samples = append(samples, 100)
	}
	d := NewPolicy(nil).Decide(samples, nil, 0)
	if !d.Stop {
		t.Fatal("policy did not stop on a crossing-stable stream")
	}
	if d.Early {
		t.Error("crossing-rule stop reported Early=true")
	}
	if d.Estimate != 100 {
		t.Errorf("Estimate = %v, want the 100 Mbps tail mean", d.Estimate)
	}
}

func TestPolicyMinSamplesGate(t *testing.T) {
	m := *Default()
	m.MinSamples = 30
	// Noisy stream the crossing rule never stops on, shorter than K.
	samples := make([]float64, 29)
	for i := range samples {
		samples[i] = 100 + 40*float64(i%2)
	}
	if d := (Policy{Model: &m}).Decide(samples, nil, 0); d.Stop {
		t.Errorf("policy stopped at %d samples with MinSamples %d", len(samples), m.MinSamples)
	}
}

func TestPolicyModelStopIsEarly(t *testing.T) {
	// Force the model to always fire: zero weights, negative-free bias
	// drives the sigmoid to ~1, threshold well below it.
	m := *Default()
	m.Weights = [NFeatures]float64{}
	m.Bias = 50
	m.Threshold = 0.9
	// Noisy enough that the crossing rule does not stop (tail spread > 3%).
	samples := make([]float64, 25)
	for i := range samples {
		samples[i] = 100 + 40*float64(i%2)
	}
	d := (Policy{Model: &m}).Decide(samples, nil, 0)
	if !d.Stop || !d.Early {
		t.Fatalf("Decide = %+v, want a model-fired early stop", d)
	}
	if d.Check < m.Threshold {
		t.Errorf("Check = %v below threshold %v on a fired stop", d.Check, m.Threshold)
	}
	if d.Note != "model" {
		t.Errorf("Note = %q, want model", d.Note)
	}
}

// TestPolicyEngineDeterministic runs the full engine twice with the
// earlystop policy on the identical seeded link and requires byte-identical
// Result streams — the determinism half of the acceptance gate.
func TestPolicyEngineDeterministic(t *testing.T) {
	profile, err := ranprofile.Get("5g-drive")
	if err != nil {
		t.Fatal(err)
	}
	model, err := dataset.TechModel(profile.DatasetTech(), 2021)
	if err != nil {
		t.Fatal(err)
	}
	run := func() core.Result {
		machine := ranprofile.NewMachine(profile, 9, ranprofile.MachineOptions{})
		link, err := linksim.New(linksim.Config{StateHook: machine.Hook()}, 9)
		if err != nil {
			t.Fatal(err)
		}
		probe := core.NewSimProbe(link)
		defer probe.Close()
		res, err := core.Run(probe, core.Config{
			Model:       model,
			MaxDuration: paired.MaxDuration,
			Terminate:   NewPolicy(nil),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs on the identical seeded link diverged:\n%+v\n%+v", a, b)
	}
}

func TestReplayDeterministicRows(t *testing.T) {
	cfg := ReplayConfig{
		Profiles:   []string{"wifi-cafe"},
		FaultPlans: []paired.NamedFaultPlan{{Name: "none"}},
		Runs:       2,
		Seed:       5,
	}
	r1, err := Replay(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Replay(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) == 0 {
		t.Fatal("replay produced no rows")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("two replays of the identical config produced different rows")
	}
}

func TestTrainFromReplayByteIdenticalArtifact(t *testing.T) {
	rcfg := ReplayConfig{
		Profiles: []string{"5g-static", "4g-drive", "subway"},
		Runs:     2,
		Seed:     3,
	}
	m1, rows, err := TrainFromReplay(context.Background(), rcfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("TrainFromReplay returned no rows")
	}
	m2, _, err := TrainFromReplay(context.Background(), rcfg, TrainOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := m1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := m2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("TrainFromReplay artifacts differ across identical reruns")
	}
}

func TestReplayCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Replay(ctx, ReplayConfig{Profiles: []string{"wifi-cafe"}}); err == nil {
		t.Error("Replay with a cancelled context returned nil error")
	}
}

// TestEvaluatePairedAcceptance is the headline gate: over the full RAN
// profile library × builtin fault plans, the default earlystop model must
// match or beat the crossing policy's mean accuracy while spending less
// time and fewer bytes — every policy on identical seeded links.
func TestEvaluatePairedAcceptance(t *testing.T) {
	rep, err := Evaluate(context.Background(), EvalConfig{Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("Points = %d, want crossing + one earlystop point", len(rep.Points))
	}
	crossing, learned := rep.Points[0], rep.Points[1]
	if learned.MeanAccuracy < crossing.MeanAccuracy {
		t.Errorf("earlystop accuracy %.4f below crossing %.4f",
			learned.MeanAccuracy, crossing.MeanAccuracy)
	}
	if learned.MeanDurationMS >= crossing.MeanDurationMS {
		t.Errorf("earlystop duration %.0f ms not below crossing %.0f ms",
			learned.MeanDurationMS, crossing.MeanDurationMS)
	}
	if learned.MeanDataMB >= crossing.MeanDataMB {
		t.Errorf("earlystop data %.1f MB not below crossing %.1f MB",
			learned.MeanDataMB, crossing.MeanDataMB)
	}
	if learned.EarlyStops == 0 {
		t.Error("earlystop never fired across the full matrix")
	}
}

func TestEvaluateRejectsBadThreshold(t *testing.T) {
	_, err := Evaluate(context.Background(), EvalConfig{
		Profiles:   []string{"wifi-cafe"},
		Thresholds: []float64{1.2},
	})
	if err == nil {
		t.Error("Evaluate accepted a threshold outside (0,1)")
	}
}
