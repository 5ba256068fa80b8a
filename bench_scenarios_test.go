// Emitter for BENCH_scenarios.json: a machine-readable record of the
// scenario campaign runner's virtual-time throughput — how fast the RAN
// profile sweep (profiles × algorithms × fault plans, each run against
// flooding ground truth) turns over. Gated on BENCH_SCENARIOS_OUT so
// regular `go test ./...` runs never pay for it:
//
//	BENCH_SCENARIOS_OUT=BENCH_scenarios.json go test -run TestEmitBenchScenarios .
package swiftest_test

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/paired"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

type benchScenariosReport struct {
	Schema string `json:"schema"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
	Note   string `json:"note"`

	// The sweep shape of the measured campaign.
	Profiles   int `json:"profiles"`
	Algorithms int `json:"algorithms"`
	FaultPlans int `json:"fault_plans"`
	Cells      int `json:"cells"`
	// Every cell run also replays a flooding ground-truth test, so the
	// emulated test count is 2 × cells × runs.
	EmulatedTests int `json:"emulated_tests"`

	CampaignWallSeconds float64 `json:"campaign_wall_seconds"`
	CellsPerSec         float64 `json:"cells_per_sec"`
	ProfilesPerSec      float64 `json:"profiles_per_sec"`
	TestsPerSec         float64 `json:"tests_per_sec"`
}

// TestEmitBenchScenarios measures campaign throughput over the full profile
// library and writes BENCH_scenarios.json.
func TestEmitBenchScenarios(t *testing.T) {
	out := os.Getenv("BENCH_SCENARIOS_OUT")
	if out == "" {
		t.Skip("set BENCH_SCENARIOS_OUT=<path> to emit the benchmark report")
	}

	cfg := exper.CampaignConfig{
		Runs:    1,
		Seed:    7,
		Workers: runtime.NumCPU(),
	}
	var rep *exper.CampaignReport
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			rep, err = exper.RunCampaign(context.Background(), cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	wallSec := res.T.Seconds() / float64(res.N)
	cells := len(rep.Scenarios)
	tests := 2 * cells * rep.Runs

	report := benchScenariosReport{
		Schema: "swiftest-bench-scenarios/v1",
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		CPUs:   runtime.NumCPU(),
		Note: "full RAN profile library x (swiftest, fastbts) x builtin fault " +
			"plans, one seeded run per cell, each against flooding ground truth",
		Profiles:            len(rep.Profiles),
		Algorithms:          len(rep.Algorithms),
		FaultPlans:          len(rep.FaultPlans),
		Cells:               cells,
		EmulatedTests:       tests,
		CampaignWallSeconds: wallSec,
		CellsPerSec:         float64(cells) / wallSec,
		ProfilesPerSec:      float64(len(rep.Profiles)) / wallSec,
		TestsPerSec:         float64(tests) / wallSec,
	}

	f, err := os.Create(out)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("campaign: %d cells in %.2f s (%.1f cells/s, %.1f profiles/s)",
		cells, wallSec, report.CellsPerSec, report.ProfilesPerSec)
}

// BenchmarkCampaign measures one small campaign sweep per iteration — the
// CI bench smoke's guard that the campaign runner stays on the fast path.
func BenchmarkCampaign(b *testing.B) {
	cfg := exper.CampaignConfig{
		Profiles:   []string{"4g-static", "wifi-cafe"},
		Algorithms: []string{"fastbts"},
		FaultPlans: []paired.NamedFaultPlan{{Name: "none"}},
		Runs:       1,
		Seed:       3,
		Workers:    runtime.NumCPU(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exper.RunCampaign(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileMachine measures the per-tick cost of the RAN state
// machine — the hook the link emulator calls every 10 ms of virtual time.
func BenchmarkProfileMachine(b *testing.B) {
	p, err := ranprofile.Get("5g-drive")
	if err != nil {
		b.Fatal(err)
	}
	m := ranprofile.NewMachine(p, 5, ranprofile.MachineOptions{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.At(time.Duration(i) * 10 * time.Millisecond)
	}
}
