// Package paired is the one paired scenario harness behind every accuracy
// comparison on the RAN profile library: the scenario campaign
// (exper.RunCampaign), the earlystop evaluator (earlystop.Evaluate) and the
// earlystop labeling replay (earlystop.Replay).
//
// A sweep is the deterministic profiles × fault plans × runs matrix. Each
// run has one seed — a pure function of (sweep seed, profile, plan, run),
// never of the algorithm under test — so every algorithm or policy a caller
// runs on a Run sees the identical link, and all of them are scored against
// one fault-free BTS-APP flood of that link (§5.3's paired comparison).
package paired

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/baseline"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/dataset"
	"github.com/mobilebandwidth/swiftest/internal/faults"
	"github.com/mobilebandwidth/swiftest/internal/gmm"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
	"github.com/mobilebandwidth/swiftest/internal/stats"
)

// MaxDuration bounds every engine test the harness runs; the field
// deployment observed a 4.49 s worst case (§5.3).
const MaxDuration = 4500 * time.Millisecond

// NamedFaultPlan pairs a display name with a fault plan applied link-wide:
// every flow on the access link (Swiftest's and the baselines' alike) sees
// the same RAN-side fault, so algorithms are compared under identical
// adversity. A nil Plan is the fault-free control.
type NamedFaultPlan struct {
	Name string
	Plan *faults.Plan
}

// BuiltinFaultPlans are the standard fault plans: the fault-free control, a
// mid-test burst-loss episode, and a short access blackout.
func BuiltinFaultPlans() []NamedFaultPlan {
	return []NamedFaultPlan{
		{Name: "none"},
		{Name: "burst-loss", Plan: &faults.Plan{Seed: 1, Faults: []faults.Fault{
			{Kind: faults.BurstLoss, Server: faults.AllServers, AtMS: 800, DurationMS: 600, Prob: 0.35},
		}}},
		{Name: "blackout", Plan: &faults.Plan{Seed: 1, Faults: []faults.Fault{
			{Kind: faults.Blackout, Server: faults.AllServers, AtMS: 1000, DurationMS: 350},
		}}},
	}
}

// Sweep is a profiles × fault plans × runs matrix.
type Sweep struct {
	// Profiles are built-in RAN profile names; empty selects the whole
	// library.
	Profiles []string
	// Plans are the fault plans swept; empty selects BuiltinFaultPlans.
	Plans []NamedFaultPlan
	// Runs is the number of seeded runs per (profile, plan) cell. Zero
	// selects 3.
	Runs int
	// Seed roots every per-run seed.
	Seed int64
	// Workers bounds concurrent runs. Zero selects 1. Results come back in
	// sweep order at every worker count.
	Workers int
	// Registry, when non-nil, receives per-state dwell and handover
	// instruments from every test link (never from the truth floods).
	Registry *obs.Registry
}

// WithDefaults fills the zero fields and validates the fault plans.
func (s Sweep) WithDefaults() (Sweep, error) {
	if len(s.Profiles) == 0 {
		s.Profiles = ranprofile.Names()
	}
	if len(s.Plans) == 0 {
		s.Plans = BuiltinFaultPlans()
	}
	for _, fp := range s.Plans {
		if err := fp.Plan.Validate(); err != nil {
			return s, fmt.Errorf("paired: fault plan %q: %w", fp.Name, err)
		}
	}
	if s.Runs <= 0 {
		s.Runs = 3
	}
	if s.Workers <= 0 {
		s.Workers = 1
	}
	return s, nil
}

// PlanNames lists the sweep's fault plan names in order.
func (s Sweep) PlanNames() []string {
	names := make([]string, 0, len(s.Plans))
	for _, fp := range s.Plans {
		names = append(names, fp.Name)
	}
	return names
}

// Run is one (profile, fault plan, run) coordinate of a sweep. Every link
// it builds replays the same state chain and AR(1) noise.
type Run struct {
	Profile *ranprofile.Profile
	// Model is the calibrated bandwidth model of the profile's technology,
	// which seeds the engine's probing rates.
	Model *gmm.Model
	Plan  NamedFaultPlan
	// N is the run's index within its (profile, plan) cell.
	N    int
	Seed int64
	reg  *obs.Registry
}

// Link builds a fresh test link for the run: the profiled link under the
// run's fault plan, with the machine that drives it. The access link is
// "server 0" of the plan, and AllServers faults match it too.
func (r Run) Link() (*linksim.Link, *ranprofile.Machine, error) {
	machine := ranprofile.NewMachine(r.Profile, r.Seed, ranprofile.MachineOptions{
		Metrics: ranprofile.NewLinkMetrics(r.reg),
	})
	cfg := linksim.Config{StateHook: machine.Hook()}
	if r.Plan.Plan != nil {
		inj := r.Plan.Plan.Injector()
		cfg.Impair = func(at time.Duration) linksim.Impairment {
			imp := linksim.Impairment{
				Down:     inj.Blackout(0, at),
				LossProb: inj.LossProb(0, at),
			}
			if capMbps, ok := inj.CapMbps(0, at); ok {
				imp.CapMbps = capMbps
			}
			return imp
		}
	}
	link, err := linksim.New(cfg, r.Seed)
	if err != nil {
		return nil, nil, fmt.Errorf("paired: test link: %w", err)
	}
	return link, machine, nil
}

// Engine runs the probing engine under terminate (nil selects the §5.1
// crossing rule) on a fresh test link, capped at MaxDuration.
func (r Run) Engine(terminate core.TerminationPolicy) (core.Result, *ranprofile.Machine, error) {
	link, machine, err := r.Link()
	if err != nil {
		return core.Result{}, nil, err
	}
	probe := core.NewSimProbe(link)
	res, err := core.Run(probe, core.Config{Model: r.Model, MaxDuration: MaxDuration, Terminate: terminate})
	probe.Close()
	if err != nil {
		return core.Result{}, nil, fmt.Errorf("paired: engine on %s: %w", r.Profile.Name, err)
	}
	return res, machine, nil
}

// Truth is the run's ground truth: BTS-APP floods the identical (profile,
// seed) link — same state chain, same AR(1) noise — with no faults, so
// accuracy isolates what the termination algorithm loses, not what the
// fault destroyed.
func (r Run) Truth() (float64, error) {
	machine := ranprofile.NewMachine(r.Profile, r.Seed, ranprofile.MachineOptions{})
	link, err := linksim.New(linksim.Config{StateHook: machine.Hook()}, r.Seed)
	if err != nil {
		return 0, fmt.Errorf("paired: truth link: %w", err)
	}
	return (&baseline.BTSApp{}).Run(link).Result, nil
}

// Map calls fn on every run of the sweep, on up to s.Workers goroutines,
// and returns the results in sweep order: profile-major, then plan, then
// run. Per-run seeds are SplitMix64(Seed ^ fnv64a("profile|plan") ^ run·γ),
// so the results are a pure function of the sweep, independent of Workers
// and of goroutine scheduling. The first error in sweep order wins.
func Map[T any](ctx context.Context, s Sweep, fn func(Run) (T, error)) ([]T, error) {
	s, err := s.WithDefaults()
	if err != nil {
		return nil, err
	}
	runs := make([]Run, 0, len(s.Profiles)*len(s.Plans)*s.Runs)
	for _, name := range s.Profiles {
		profile, err := ranprofile.Get(name)
		if err != nil {
			return nil, err
		}
		model, err := dataset.TechModel(profile.DatasetTech(), 2021)
		if err != nil {
			return nil, fmt.Errorf("paired: %v", err)
		}
		for _, fp := range s.Plans {
			h := fnv.New64a()
			fmt.Fprintf(h, "%s|%s", name, fp.Name)
			cellHash := h.Sum64()
			for n := 0; n < s.Runs; n++ {
				seed := int64(stats.SplitMix64(uint64(s.Seed) ^ cellHash ^ uint64(n)*stats.SplitMix64Gamma))
				runs = append(runs, Run{Profile: profile, Model: model, Plan: fp, N: n, Seed: seed, reg: s.Registry})
			}
		}
	}

	out := make([]T, len(runs))
	errs := make([]error, len(runs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < s.Workers && w < len(runs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = fn(runs[i])
			}
		}()
	}
	for i := range runs {
		if ctx.Err() != nil {
			break
		}
		next <- i
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("paired: sweep cancelled: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
