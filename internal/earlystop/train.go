package earlystop

import (
	"context"
	"fmt"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/paired"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// ReplayConfig parameterises the labeling replay: the cross product of
// profiles × fault plans, each run Runs times on the seeded links of one
// paired.Sweep. Training sees the same adversity the campaign and the
// evaluator sweep.
type ReplayConfig struct {
	// Profiles are built-in RAN profile names; empty selects the whole
	// library.
	Profiles []string
	// FaultPlans are the fault plans to sweep; empty selects
	// paired.BuiltinFaultPlans.
	FaultPlans []paired.NamedFaultPlan
	// Runs is the number of seeded runs per (profile, fault plan) cell.
	// Zero selects 3.
	Runs int
	// Seed roots every per-run seed; rows are a pure function of
	// (config, seed).
	Seed int64
	// MinSamples is the shortest prefix labeled (the model's K). Zero
	// selects 20.
	MinSamples int
	// PrefixStep is the stride between labeled prefixes of one run. Zero
	// selects 5.
	PrefixStep int
	// Tolerance is the accuracy slack a positive label allows versus the
	// crossing baseline: a prefix is positive when its deviation from the
	// flooding ground truth is at most the crossing-policy result's
	// deviation plus Tolerance. Zero selects 0.10.
	Tolerance float64
}

func (c ReplayConfig) withDefaults() (ReplayConfig, error) {
	if c.MinSamples <= 0 {
		c.MinSamples = 20
	}
	if c.MinSamples < featureWindow {
		return c, fmt.Errorf("earlystop: MinSamples %d below the %d-sample feature window", c.MinSamples, featureWindow)
	}
	if c.PrefixStep <= 0 {
		c.PrefixStep = 5
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.10
	}
	return c, nil
}

// neverStop runs the engine to its deadline so the replay captures the full
// sample stream — every prefix of which becomes a training example.
type neverStop struct{}

func (neverStop) Name() string { return "never" }
func (neverStop) Decide([]float64, []estimate.TrajectoryPoint, time.Duration) core.Decision {
	return core.Decision{}
}

// Replay sweeps profiles × fault plans under cfg, runs the probing engine
// to its deadline on each seeded link, and labels every prefix against the
// fault-free flooding ground truth on the identical (profile, seed) link.
// A prefix is positive when stopping there — reporting its trailing-window
// mean — deviates from the truth by at most the §5.1 crossing policy's own
// deviation plus Tolerance: "less is enough" exactly when cutting the test
// short costs no material accuracy versus the default rule. Rows come back
// in sweep order — a pure function of (cfg, Seed) — so Train over them is
// deterministic too.
func Replay(ctx context.Context, cfg ReplayConfig) ([]Row, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	sweep := paired.Sweep{Profiles: cfg.Profiles, Plans: cfg.FaultPlans, Runs: cfg.Runs, Seed: cfg.Seed}
	perRun, err := paired.Map(ctx, sweep, func(r paired.Run) ([]Row, error) {
		return replayOne(r, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("earlystop: replay: %w", err)
	}
	var rows []Row
	for _, runRows := range perRun {
		rows = append(rows, runRows...)
	}
	return rows, nil
}

// replayOne measures one paired run to its deadline and labels its
// prefixes.
func replayOne(r paired.Run, cfg ReplayConfig) ([]Row, error) {
	res, _, err := r.Engine(neverStop{})
	if err != nil {
		return nil, err
	}
	truth, err := r.Truth()
	if err != nil {
		return nil, err
	}

	// The crossing baseline on the same stream: what -terminate crossing
	// would have reported. Its deviation from truth anchors the labels.
	crossingEst, _ := crossingReplay(res.Samples)
	crossingDev := stats.Deviation(crossingEst, truth)

	var rows []Row
	for n := cfg.MinSamples; n <= len(res.Samples); n += cfg.PrefixStep {
		prefix := res.Samples[:n]
		traj := res.Trajectory
		if len(traj) > n {
			traj = traj[:n]
		}
		w := featureWindow
		if w > n {
			w = n
		}
		est := meanOf(prefix[n-w:])
		row := Row{
			Label:     stats.Deviation(est, truth) <= crossingDev+cfg.Tolerance,
			Profile:   r.Profile.Name,
			FaultPlan: r.Plan.Name,
			Run:       r.N,
			Prefix:    n,
		}
		Featurize(prefix, traj, &row.Features)
		rows = append(rows, row)
	}
	return rows, nil
}

// crossingReplay replays the §5.1 crossing policy over a sample stream:
// the first window it stops on decides the estimate, and crossed reports
// that it stopped at all. A stream it never stops on reports the deadline
// trailing-window mean, exactly like the engine.
func crossingReplay(samples []float64) (estimate float64, crossed bool) {
	var cp core.CrossingPolicy
	for n := 1; n <= len(samples); n++ {
		if d := cp.Decide(samples[:n], nil, 0); d.Stop {
			return d.Estimate, true
		}
	}
	w := min(featureWindow, len(samples))
	if w == 0 {
		return 0, false
	}
	return meanOf(samples[len(samples)-w:]), false
}

// TrainFromReplay runs the labeling replay and fits a model in one step,
// keeping MinSamples and Tolerance consistent between the rows and the
// artifact. It returns the fitted model and the rows it was trained on.
func TrainFromReplay(ctx context.Context, rcfg ReplayConfig, topts TrainOptions) (*Model, []Row, error) {
	rcfg, err := rcfg.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	topts.MinSamples = rcfg.MinSamples
	topts.Tolerance = rcfg.Tolerance
	rows, err := Replay(ctx, rcfg)
	if err != nil {
		return nil, nil, err
	}
	m, err := Train(rows, topts)
	if err != nil {
		return nil, nil, err
	}
	return m, rows, nil
}
