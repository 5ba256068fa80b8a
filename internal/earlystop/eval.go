package earlystop

import (
	"context"
	"fmt"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/paired"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// EvalReportSchema names the paired-evaluation report layout.
const EvalReportSchema = "swiftest-earlystop-eval/v1"

// EvalConfig parameterises a paired policy evaluation: every point runs on
// the identical seeded links of one paired.Sweep — per-run seeds hash only
// (profile, fault plan, run), never the policy — so differences between
// points measure the policies, not link noise.
type EvalConfig struct {
	// Profiles are built-in RAN profile names; empty selects the whole
	// library.
	Profiles []string
	// FaultPlans are the fault plans swept; empty selects
	// paired.BuiltinFaultPlans.
	FaultPlans []paired.NamedFaultPlan
	// Runs is the number of seeded runs per (profile, fault plan) cell.
	// Zero selects 3.
	Runs int
	// Seed roots every per-run seed; the report is a pure function of
	// (config, seed).
	Seed int64
	// Model is the earlystop model under evaluation; nil selects the
	// embedded default.
	Model *Model
	// Thresholds are extra stop-probability thresholds to trace the
	// accuracy-vs-duration-vs-data front with; the model's own threshold
	// is always evaluated. Values outside (0,1) are rejected.
	Thresholds []float64
}

// EvalPoint is one policy's aggregate over the whole paired matrix.
type EvalPoint struct {
	// Policy is "crossing" or "earlystop".
	Policy string `json:"policy"`
	// Threshold is the earlystop stop threshold (0 for crossing).
	Threshold float64 `json:"threshold,omitempty"`
	// MeanAccuracy is mean 1 − deviation versus the fault-free BTS-APP
	// flooding ground truth on the identical (profile, seed) link.
	MeanAccuracy float64 `json:"mean_accuracy"`
	// MeanDurationMS and MeanDataMB are the mean test cost.
	MeanDurationMS float64 `json:"mean_duration_ms"`
	MeanDataMB     float64 `json:"mean_data_mb"`
	// EarlyStops counts runs the learned model fired on (0 for crossing).
	EarlyStops int `json:"early_stops"`
	// Runs is the number of paired runs aggregated.
	Runs int `json:"runs"`
}

// EvalReport is the full deterministic paired-evaluation outcome. Points
// come in config order: crossing first, then one earlystop point per
// evaluated threshold (the model's own threshold first).
type EvalReport struct {
	Schema     string      `json:"schema"`
	Seed       int64       `json:"seed"`
	Runs       int         `json:"runs_per_cell"`
	Profiles   []string    `json:"profiles"`
	FaultPlans []string    `json:"fault_plans"`
	Points     []EvalPoint `json:"points"`
}

// Evaluate measures the crossing policy and the earlystop policy (at one or
// more thresholds) over the full profiles × fault plans matrix, every
// policy on the identical seeded links, against fault-free flooding ground
// truth. The report is a pure function of (cfg, Seed).
func Evaluate(ctx context.Context, cfg EvalConfig) (*EvalReport, error) {
	sweep, err := paired.Sweep{Profiles: cfg.Profiles, Plans: cfg.FaultPlans, Runs: cfg.Runs, Seed: cfg.Seed}.WithDefaults()
	if err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		model = Default()
	}
	thresholds := append([]float64{model.Threshold}, cfg.Thresholds...)
	for _, t := range thresholds {
		if t <= 0 || t >= 1 {
			return nil, fmt.Errorf("earlystop: eval threshold %g outside (0,1)", t)
		}
	}

	// policies[0] is crossing (nil Terminate); the rest are earlystop
	// variants of the same model at each threshold.
	policies := make([]core.TerminationPolicy, 1, 1+len(thresholds))
	for _, t := range thresholds {
		variant := *model
		variant.Threshold = t
		policies = append(policies, NewPolicy(&variant))
	}

	type scored struct {
		accuracy, durationMS, dataMB float64
		early                        bool
	}
	runs, err := paired.Map(ctx, sweep, func(r paired.Run) ([]scored, error) {
		truth, err := r.Truth()
		if err != nil {
			return nil, err
		}
		out := make([]scored, len(policies))
		for pi, policy := range policies {
			res, _, err := r.Engine(policy)
			if err != nil {
				return nil, err
			}
			out[pi] = scored{
				accuracy:   1 - stats.Deviation(res.Bandwidth, truth),
				durationMS: float64(res.Duration.Milliseconds()),
				dataMB:     res.DataMB,
			}
			if pi > 0 && res.Converged {
				// A converged stream the crossing rule never stops on was
				// stopped by the model, not by the crossing fallback.
				_, crossed := crossingReplay(res.Samples)
				out[pi].early = !crossed
			}
		}
		return out, nil
	})
	if err != nil {
		return nil, fmt.Errorf("earlystop: eval: %w", err)
	}

	points := make([]EvalPoint, len(policies))
	for _, run := range runs {
		for pi, s := range run {
			pt := &points[pi]
			pt.MeanAccuracy += s.accuracy
			pt.MeanDurationMS += s.durationMS
			pt.MeanDataMB += s.dataMB
			if s.early {
				pt.EarlyStops++
			}
			pt.Runs++
		}
	}
	for pi := range points {
		pt := &points[pi]
		if pt.Runs > 0 {
			n := float64(pt.Runs)
			pt.MeanAccuracy /= n
			pt.MeanDurationMS /= n
			pt.MeanDataMB /= n
		}
		if pi == 0 {
			pt.Policy = "crossing"
		} else {
			pt.Policy = "earlystop"
			pt.Threshold = thresholds[pi-1]
		}
	}
	return &EvalReport{
		Schema:     EvalReportSchema,
		Seed:       cfg.Seed,
		Runs:       sweep.Runs,
		Profiles:   sweep.Profiles,
		FaultPlans: sweep.PlanNames(),
		Points:     points,
	}, nil
}
