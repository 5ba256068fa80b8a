package exper

import (
	"bytes"
	"context"
	"math"
	"testing"

	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/paired"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// campaignBytes runs a small campaign and returns the report JSON.
func campaignBytes(t *testing.T, workers int) []byte {
	t.Helper()
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Profiles:   []string{"4g-drive", "wifi-cafe"},
		Algorithms: []string{"swiftest", "fastbts"},
		Runs:       2,
		Seed:       99,
		Workers:    workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCampaignByteIdenticalAcrossWorkers(t *testing.T) {
	one := campaignBytes(t, 1)
	eight := campaignBytes(t, 8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("report differs between -workers 1 and 8:\n%s\nvs\n%s", one, eight)
	}
	again := campaignBytes(t, 8)
	if !bytes.Equal(eight, again) {
		t.Fatal("report differs between identical reruns")
	}
}

func TestCampaignSweepShape(t *testing.T) {
	reg := obs.NewRegistry()
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Profiles:   []string{"subway"},
		Algorithms: []string{"swiftest", "fastbts", "fast"},
		Runs:       1,
		Seed:       5,
		Workers:    4,
		Registry:   reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 1 * 3 * len(paired.BuiltinFaultPlans())
	if len(rep.Scenarios) != wantCells {
		t.Fatalf("report has %d cells, want %d", len(rep.Scenarios), wantCells)
	}
	if rep.Schema != CampaignReportSchema {
		t.Errorf("schema = %q, want %q", rep.Schema, CampaignReportSchema)
	}
	var totalStateChanges int
	for _, s := range rep.Scenarios {
		if s.MeanTruthMbps <= 0 {
			t.Errorf("%s/%s/%s: non-positive ground truth", s.Profile, s.Algorithm, s.FaultPlan)
		}
		if s.MeanAccuracy <= 0 || s.MeanAccuracy > 1 {
			t.Errorf("%s/%s/%s: accuracy %g out of (0,1]", s.Profile, s.Algorithm, s.FaultPlan, s.MeanAccuracy)
		}
		if s.MeanDurationMS <= 0 {
			t.Errorf("%s/%s/%s: non-positive duration", s.Profile, s.Algorithm, s.FaultPlan)
		}
		totalStateChanges += s.StateChanges
	}
	// A fast-converging run can legitimately end before its first
	// transition; across the whole sweep the subway chain must move.
	if totalStateChanges == 0 {
		t.Error("no campaign link ever changed state")
	}
	// The subway profile hands over; the campaign registry must have seen
	// dwell observations from the profiled links.
	lm := ranprofile.NewLinkMetrics(reg)
	if lm.StateDwell.Count() == 0 {
		t.Error("campaign registry recorded no state dwell observations")
	}

	var buf bytes.Buffer
	if err := rep.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("WriteTable produced no output")
	}
}

func TestCampaignDefaultsSweepWholeLibrary(t *testing.T) {
	cfg, err := CampaignConfig{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Profiles) < 8 {
		t.Errorf("default sweep covers %d profiles, want >= 8", len(cfg.Profiles))
	}
	if len(cfg.Algorithms) < 2 || len(cfg.FaultPlans) < 2 {
		t.Errorf("default sweep %v x %d fault plans too narrow", cfg.Algorithms, len(cfg.FaultPlans))
	}
}

func TestCampaignRejectsUnknownAlgorithm(t *testing.T) {
	_, err := RunCampaign(context.Background(), CampaignConfig{Algorithms: []string{"warpdrive"}})
	if err == nil {
		t.Fatal("campaign accepted unknown algorithm")
	}
}

func TestCampaignHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCampaign(ctx, CampaignConfig{Runs: 1, Workers: 2})
	if err == nil {
		t.Fatal("cancelled campaign reported success")
	}
}

// TestCampaignCellsPaired pins the paired harness: every algorithm of a
// (profile, fault plan) runs on the identical links against one truth
// flood, so the cells' mean truths agree exactly.
func TestCampaignCellsPaired(t *testing.T) {
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Profiles:   []string{"4g-drive", "5g-static", "subway"},
		Algorithms: []string{"swiftest", "fastbts", "fast", "earlystop"},
		Runs:       2,
		Seed:       42,
		Workers:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]float64{}
	for _, s := range rep.Scenarios {
		key := s.Profile + "/" + s.FaultPlan
		want, ok := truth[key]
		if !ok {
			truth[key] = s.MeanTruthMbps
			continue
		}
		if s.MeanTruthMbps != want {
			t.Errorf("%s: %s truth %.6f Mbps, first algorithm's %.6f", key, s.Algorithm, s.MeanTruthMbps, want)
		}
	}
	if len(truth) != 3*len(rep.FaultPlans) {
		t.Errorf("saw %d (profile, plan) cells, want %d", len(truth), 3*len(rep.FaultPlans))
	}
}

// TestCampaignMatchesEvaluate checks that the campaign and the earlystop
// evaluator are one harness: averaged over its cells, a campaign of
// swiftest and earlystop reproduces Evaluate's crossing and earlystop
// points at the same seed and run count.
func TestCampaignMatchesEvaluate(t *testing.T) {
	rep, err := RunCampaign(context.Background(), CampaignConfig{
		Algorithms: []string{"swiftest", "earlystop"},
		Runs:       3,
		Seed:       1,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eval, err := earlystop.Evaluate(context.Background(), earlystop.EvalConfig{Runs: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, alg := range []string{"swiftest", "earlystop"} {
		var acc, dur, data float64
		var cells int
		for _, s := range rep.Scenarios {
			if s.Algorithm == alg {
				acc += s.MeanAccuracy
				dur += s.MeanDurationMS
				data += s.MeanDataMB
				cells++
			}
		}
		n := float64(cells)
		pt := eval.Points[i]
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"accuracy", acc / n, pt.MeanAccuracy},
			{"duration_ms", dur / n, pt.MeanDurationMS},
			{"data_mb", data / n, pt.MeanDataMB},
		} {
			if math.Abs(c.got-c.want) > 1e-9 {
				t.Errorf("%s vs %s point: campaign %s %.12f, Evaluate %.12f", alg, pt.Policy, c.name, c.got, c.want)
			}
		}
	}
}
