package exper

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/earlystop"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/paired"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// CampaignReportSchema names the campaign report layout, carried in the
// report header so downstream tooling can dispatch on it.
const CampaignReportSchema = "swiftest-campaign-report/v1"

// CampaignAlgorithms are the termination algorithms a campaign can sweep.
var CampaignAlgorithms = []string{"swiftest", "fastbts", "fast", "earlystop"}

// CampaignConfig parameterises a scenario campaign: the cross product of
// profiles × algorithms × fault plans, each cell measured Runs times.
type CampaignConfig struct {
	// Profiles are built-in profile names; empty selects the whole library.
	Profiles []string
	// Algorithms are termination algorithms from CampaignAlgorithms; empty
	// selects swiftest and fastbts.
	Algorithms []string
	// FaultPlans are the fault plans to sweep; empty selects
	// paired.BuiltinFaultPlans.
	FaultPlans []paired.NamedFaultPlan
	// Runs is the number of seeded runs per cell. Zero selects 3.
	Runs int
	// Seed roots every per-run seed; the report is a pure function of
	// (config, seed).
	Seed int64
	// Workers bounds concurrent runs. Zero selects 1. The report is
	// byte-identical at every worker count: per-run seeds are pure
	// functions of the (profile, fault plan, run) coordinates and results
	// aggregate in cell order regardless of completion order.
	Workers int
	// Registry, when non-nil, receives per-state dwell and handover
	// instruments from every profiled link in the campaign.
	Registry *obs.Registry
}

func (c CampaignConfig) withDefaults() (CampaignConfig, error) {
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"swiftest", "fastbts"}
	}
	for _, alg := range c.Algorithms {
		switch alg {
		case "swiftest", "fastbts", "fast", "earlystop":
		default:
			return c, fmt.Errorf("exper: unknown campaign algorithm %q (known: %v)", alg, CampaignAlgorithms)
		}
	}
	s, err := c.sweep().WithDefaults()
	if err != nil {
		return c, err
	}
	c.Profiles, c.FaultPlans, c.Runs, c.Workers = s.Profiles, s.Plans, s.Runs, s.Workers
	return c, nil
}

func (c CampaignConfig) sweep() paired.Sweep {
	return paired.Sweep{
		Profiles: c.Profiles,
		Plans:    c.FaultPlans,
		Runs:     c.Runs,
		Seed:     c.Seed,
		Workers:  c.Workers,
		Registry: c.Registry,
	}
}

// ScenarioStats is one aggregated cell of the campaign report: one
// (profile, algorithm, fault plan) combination across all its runs.
type ScenarioStats struct {
	Profile   string `json:"profile"`
	Algorithm string `json:"algorithm"`
	FaultPlan string `json:"fault_plan"`
	Runs      int    `json:"runs"`
	// MeanAccuracy is mean 1 − deviation versus the fault-free BTS-APP
	// ground truth on the identical (profile, seed) link. Every algorithm
	// of a (profile, fault plan) runs on the same links against the same
	// truths, so cells compare across algorithms.
	MeanAccuracy float64 `json:"mean_accuracy"`
	// MeanDurationMS is the mean test duration in virtual milliseconds.
	MeanDurationMS float64 `json:"mean_duration_ms"`
	// MeanDataMB is the mean data consumed per test.
	MeanDataMB float64 `json:"mean_data_mb"`
	// MeanEstimateMbps / MeanTruthMbps are the mean reported and
	// ground-truth bandwidths.
	MeanEstimateMbps float64 `json:"mean_estimate_mbps"`
	MeanTruthMbps    float64 `json:"mean_truth_mbps"`
	// Converged counts runs the algorithm terminated by its own criterion
	// (always Runs for the flooding baselines).
	Converged int `json:"converged"`
	// Handovers and StateChanges total the RAN chain activity the test
	// links went through during measurement.
	Handovers    int `json:"handovers"`
	StateChanges int `json:"state_changes"`
}

// CampaignReport is the full deterministic campaign outcome.
type CampaignReport struct {
	Schema     string          `json:"schema"`
	Seed       int64           `json:"seed"`
	Runs       int             `json:"runs_per_cell"`
	Profiles   []string        `json:"profiles"`
	Algorithms []string        `json:"algorithms"`
	FaultPlans []string        `json:"fault_plans"`
	Scenarios  []ScenarioStats `json:"scenarios"`
}

// WriteJSON emits the report as indented JSON. The bytes are a pure
// function of the report (no maps, no timestamps), so reruns and different
// worker counts produce identical artifacts.
func (r *CampaignReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the report as a fixed-width text table, cells in
// report order.
func (r *CampaignReport) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-26s %-9s %-11s %8s %9s %8s %9s %9s %5s %5s\n",
		"PROFILE", "ALG", "FAULTS", "ACC", "DUR(ms)", "DATA(MB)", "EST(Mb)", "TRUE(Mb)", "CONV", "HO"); err != nil {
		return err
	}
	for _, s := range r.Scenarios {
		if _, err := fmt.Fprintf(w, "%-26s %-9s %-11s %7.1f%% %9.0f %8.2f %9.1f %9.1f %2d/%-2d %5d\n",
			s.Profile, s.Algorithm, s.FaultPlan, 100*s.MeanAccuracy, s.MeanDurationMS,
			s.MeanDataMB, s.MeanEstimateMbps, s.MeanTruthMbps, s.Converged, s.Runs, s.Handovers); err != nil {
			return err
		}
	}
	return nil
}

// runOutcome is one algorithm's measurement on one run.
type runOutcome struct {
	estimate     float64
	truth        float64
	duration     time.Duration
	dataMB       float64
	converged    bool
	handovers    int
	stateChanges int
}

// runAlgorithms measures every algorithm on one paired run: each on a fresh
// replay of the identical faulted link, all against one truth flood.
func runAlgorithms(r paired.Run, algs []string) ([]runOutcome, error) {
	truth, err := r.Truth()
	if err != nil {
		return nil, err
	}
	out := make([]runOutcome, len(algs))
	for i, alg := range algs {
		o := &out[i]
		var machine *ranprofile.Machine
		switch alg {
		case "swiftest", "earlystop":
			var terminate core.TerminationPolicy
			if alg == "earlystop" {
				// The learned policy over the same engine: the crossing
				// rule stays as its fallback, so accuracy can only differ
				// where the model fires first.
				terminate = earlystop.NewPolicy(nil)
			}
			res, m, err := r.Engine(terminate)
			if err != nil {
				return nil, fmt.Errorf("exper: %s: %w", alg, err)
			}
			*o = runOutcome{estimate: res.Bandwidth, duration: res.Duration, dataMB: res.DataMB, converged: res.Converged}
			machine = m
		case "fastbts", "fast":
			link, m, err := r.Link()
			if err != nil {
				return nil, err
			}
			var rep baseline.Report
			if alg == "fastbts" {
				rep = (&baseline.FastBTS{}).Run(link)
			} else {
				rep = (&baseline.FAST{}).Run(link)
			}
			*o = runOutcome{estimate: rep.Result, duration: rep.Duration, dataMB: rep.DataMB, converged: true}
			machine = m
		default:
			return nil, fmt.Errorf("exper: unknown campaign algorithm %q", alg)
		}
		o.truth = truth
		o.handovers = machine.Handovers()
		o.stateChanges = machine.StateChanges()
	}
	return out, nil
}

// RunCampaign sweeps profiles × algorithms × fault plans under cfg and
// aggregates each cell. Every (profile, fault plan, run) is one paired run:
// all algorithms measure the identical link against one truth flood. The
// report is deterministic: a pure function of the config and seed,
// independent of Workers and of goroutine scheduling.
func RunCampaign(ctx context.Context, cfg CampaignConfig) (*CampaignReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	runs, err := paired.Map(ctx, cfg.sweep(), func(r paired.Run) ([]runOutcome, error) {
		return runAlgorithms(r, cfg.Algorithms)
	})
	if err != nil {
		return nil, fmt.Errorf("exper: campaign: %w", err)
	}

	// Aggregate sequentially in cell order: float summation order is fixed,
	// so the report bytes cannot depend on scheduling. Runs come back
	// profile-major, then fault plan, then run.
	report := &CampaignReport{
		Schema:     CampaignReportSchema,
		Seed:       cfg.Seed,
		Runs:       cfg.Runs,
		Profiles:   cfg.Profiles,
		Algorithms: cfg.Algorithms,
		FaultPlans: cfg.sweep().PlanNames(),
		Scenarios:  make([]ScenarioStats, 0, len(cfg.Profiles)*len(cfg.Algorithms)*len(cfg.FaultPlans)),
	}
	for pi, profile := range cfg.Profiles {
		for ai, alg := range cfg.Algorithms {
			for fi, fp := range cfg.FaultPlans {
				s := ScenarioStats{Profile: profile, Algorithm: alg, FaultPlan: fp.Name, Runs: cfg.Runs}
				first := (pi*len(cfg.FaultPlans) + fi) * cfg.Runs
				for _, outcomes := range runs[first : first+cfg.Runs] {
					o := outcomes[ai]
					s.MeanAccuracy += 1 - stats.Deviation(o.estimate, o.truth)
					s.MeanDurationMS += float64(o.duration) / float64(time.Millisecond)
					s.MeanDataMB += o.dataMB
					s.MeanEstimateMbps += o.estimate
					s.MeanTruthMbps += o.truth
					if o.converged {
						s.Converged++
					}
					s.Handovers += o.handovers
					s.StateChanges += o.stateChanges
				}
				n := float64(cfg.Runs)
				s.MeanAccuracy /= n
				s.MeanDurationMS /= n
				s.MeanDataMB /= n
				s.MeanEstimateMbps /= n
				s.MeanTruthMbps /= n
				report.Scenarios = append(report.Scenarios, s)
			}
		}
	}
	return report, nil
}
