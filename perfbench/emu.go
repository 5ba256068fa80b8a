package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"time"

	"github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/estimate"
	"github.com/mobilebandwidth/swiftest/internal/exper"
	"github.com/mobilebandwidth/swiftest/internal/linksim"
	"github.com/mobilebandwidth/swiftest/internal/ranprofile"
)

// Input sizes of the emulated workloads. A run cycles through its inputs in
// order until its time is up, and always completes one full pass: the
// behaviour metrics (test_s, data_mb, accuracy) are taken over that first
// pass, so they are exact for a seed; later passes must repeat its results.
const (
	staticInputs = 3000 // links drawn per emu-static run, rotating 4G/5G/WiFi
	ranRounds    = 30   // seeds per built-in profile per emu-ran run
	warmTests    = 64   // untimed tests at the end of set-up
)

// emuInput is one generated emulated test: what the program receives.
type emuInput struct {
	link    swiftest.LinkConfig
	model   *swiftest.Model
	profile *swiftest.Profile
	truth   float64 // the link's capacity, or 0 where no truth is defined
}

// emuOut is the part of a Result a rerun must reproduce exactly.
type emuOut struct {
	bw, data  float64
	dur       time.Duration
	samples   int
	converged bool
	escal     int
}

func outOf(bw float64, dur time.Duration, data float64, samples []float64, converged bool, escal int) emuOut {
	return emuOut{bw: bw, data: data, dur: dur, samples: len(samples), converged: converged, escal: escal}
}

// sane checks one emulated result against what any valid test returns.
func (o emuOut) sane() error {
	switch {
	case !(o.bw > 0) || math.IsInf(o.bw, 0):
		return fmt.Errorf("bandwidth %v", o.bw)
	case o.dur <= 0 || o.dur > 5*time.Second+linksim.SampleInterval:
		return fmt.Errorf("duration %v outside (0, 5.05 s]", o.dur)
	case !(o.data > 0):
		return fmt.Errorf("data %v MB", o.data)
	case o.samples < 1:
		return fmt.Errorf("no samples")
	}
	return nil
}

func runEmuStatic(ctx context.Context, o options) (*result, error) {
	return runEmu(ctx, o, genStatic)
}

func runEmuRAN(ctx context.Context, o options) (*result, error) {
	return runEmu(ctx, o, genRAN)
}

var techs = []swiftest.Tech{swiftest.Tech4G, swiftest.Tech5G, swiftest.TechWiFi}

func techModels() ([]*swiftest.Model, error) {
	models := make([]*swiftest.Model, len(techs))
	for i, t := range techs {
		m, err := swiftest.DefaultModel(t)
		if err != nil {
			return nil, fmt.Errorf("model %v: %w", t, err)
		}
		models[i] = m
	}
	return models, nil
}

// genStatic draws static links from the experiment harness's per-tech
// scenarios: the Figure 20–22 population, shaped tail included. The
// episodic capacity dips a draw may carry have no field in
// swiftest.LinkConfig, so the root API never sees them.
func genStatic(seed int64) ([]emuInput, error) {
	models, err := techModels()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]emuInput, staticInputs)
	for i := range inputs {
		k := i % len(techs)
		d, err := exper.Scenario{Tech: techs[k], Model: models[k], ShapedFraction: -1}.Draw(rng)
		if err != nil {
			return nil, err
		}
		link := swiftest.LinkConfig{
			CapacityMbps: d.Config.CapacityMbps,
			RTT:          d.Config.RTT,
			Fluctuation:  d.Config.Fluctuation,
			LossRate:     d.Config.LossRate,
			Seed:         rng.Int63(),
		}
		truth := d.CapacityMbps
		if s := d.Config.Shaping; s != nil {
			link.ShapingBurstMB, link.ShapingMbps = s.BurstMB, s.SustainedMbps
			truth = s.SustainedMbps
		}
		inputs[i] = emuInput{link: link, model: models[k], truth: truth}
	}
	return inputs, nil
}

// genRAN drives each built-in RAN profile with rotating seeds, under the
// default model of the profile's technology.
func genRAN(seed int64) ([]emuInput, error) {
	names := swiftest.Profiles()
	profiles := make([]*swiftest.Profile, len(names))
	models := make([]*swiftest.Model, len(names))
	for i, name := range names {
		p, err := swiftest.LookupProfile(name)
		if err != nil {
			return nil, err
		}
		m, err := swiftest.DefaultModel(p.DatasetTech())
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", name, err)
		}
		profiles[i], models[i] = p, m
	}
	rng := rand.New(rand.NewSource(seed))
	inputs := make([]emuInput, 0, ranRounds*len(names))
	for r := 0; r < ranRounds; r++ {
		for i := range profiles {
			inputs = append(inputs, emuInput{
				link:    swiftest.LinkConfig{Seed: rng.Int63()},
				model:   models[i],
				profile: profiles[i],
			})
		}
	}
	return inputs, nil
}

// simulate is the measured root call.
func simulate(ctx context.Context, in emuInput) (swiftest.Result, error) {
	return swiftest.SimulateTestContext(ctx, in.link, in.model, swiftest.SimulateOptions{Profile: in.profile})
}

// emuPass is one closed-loop pass over the inputs: its windows, and the
// results of the first full pass.
type emuPass struct {
	first   []emuOut
	windows []window
	tests   int
}

// runPass runs tests one at a time, cycling through inputs, until budget
// has elapsed and every input has run at least once. Every result is
// checked: sane on the first pass, identical to the first pass afterwards,
// and identical to ref (when given) always.
func runPass(inputs []emuInput, budget time.Duration, r *result, ref []emuOut, test func(emuInput) (emuOut, error)) emuPass {
	p := emuPass{first: make([]emuOut, len(inputs))}
	w := newWindower()
	start := time.Now()
	for i := 0; i < len(inputs) || time.Since(start) < budget; i++ {
		k := i % len(inputs)
		t0 := time.Now()
		out, err := test(inputs[k])
		w.add(float64(time.Since(t0))/1e6, out.data)
		p.tests++
		r.attempted++
		switch {
		case err != nil:
			r.fail("input %d: %v", k, err)
		case i < len(inputs):
			p.first[k] = out
			if err := out.sane(); err != nil {
				r.fail("input %d: %v", k, err)
			} else if ref != nil && out != ref[k] {
				r.fail("input %d: traced result %+v differs from the root API's %+v", k, out, ref[k])
			}
		case out != p.first[k]:
			r.fail("input %d: rerun gave %+v, first run %+v", k, out, p.first[k])
		}
	}
	p.windows = w.windows()
	return p
}

func runEmu(ctx context.Context, o options, gen func(int64) ([]emuInput, error)) (*result, error) {
	r := newResult("none (virtual time)")
	var inputs []emuInput
	setups := make([]float64, setupRepeats)
	for k := range setups {
		t0 := time.Now()
		in, err := gen(o.seed)
		if err != nil {
			return nil, err
		}
		for _, x := range in[:warmTests] {
			if _, err := simulate(ctx, x); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		setups[k] = time.Since(t0).Seconds()
		inputs = in
	}
	r.set("setup_s", median(setups), "s")

	root := func(in emuInput) (emuOut, error) {
		res, err := simulate(ctx, in)
		return outOf(res.BandwidthMbps, res.Duration, res.DataMB, res.Samples, res.Converged, res.RateChanges), err
	}
	mem, cpu0 := readMem(), cpuTime()
	pass := runPass(inputs, o.budget(), r, nil, root)
	cpu, md := cpuTime()-cpu0, mem.since()

	tests := float64(pass.tests)
	r.set("tests_per_s", medianOver(pass.windows, func(w window) float64 { return w.testsPerS }), "1/s")
	untracedP50 := medianOver(pass.windows, func(w window) float64 { return w.p50 })
	r.set("test_wall_ms_p50", untracedP50, "ms")
	r.set("test_wall_ms_p99", medianOver(pass.windows, func(w window) float64 { return w.p99 }), "ms")
	r.set("cpu_us_per_mb", medianOver(pass.windows, func(w window) float64 { return w.cpuUsPerMB }), "us/MB")
	setBehaviour(r, inputs, pass.first)
	r.layer("allocs_per_test", float64(md.mallocs)/tests)
	r.layer("alloc_kb_per_test", float64(md.bytes)/1e3/tests)
	r.layer("gc.cpu_frac", ratio(md.gcCPU, cpu.Seconds()))

	if o.trace {
		if err := traceEmu(ctx, o, inputs, pass.first, untracedP50, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// setBehaviour records the metrics a seed fixes exactly: virtual test
// duration (Figure 20), data used (Figure 21), accuracy against the drawn
// capacity (Figure 22) and the engine's per-test counts.
func setBehaviour(r *result, inputs []emuInput, outs []emuOut) {
	var durs, data, acc, samples, escal []float64
	converged := 0
	for i, o := range outs {
		durs = append(durs, o.dur.Seconds())
		data = append(data, o.data)
		samples = append(samples, float64(o.samples))
		escal = append(escal, float64(o.escal))
		if o.converged {
			converged++
		}
		if t := inputs[i].truth; t > 0 {
			acc = append(acc, 1-math.Abs(o.bw-t)/t)
		}
	}
	r.set("test_s_p50", quantile(durs, 0.5), "s")
	r.set("test_s_p90", quantile(durs, 0.9), "s")
	r.set("data_mb_p50", quantile(data, 0.5), "MB")
	if len(acc) > 0 {
		r.set("accuracy_p50", quantile(acc, 0.5), "fraction")
		r.set("accuracy_p10", quantile(acc, 0.1), "fraction")
	}
	r.layer("core.converged_frac", float64(converged)/float64(len(outs)))
	r.layer("core.samples_per_test", mean(samples))
	r.layer("core.escalations_per_test", mean(escal))
}

// hookStride is how often the StateHook span is taken: one call in 16. The
// hook runs every 10 ms tick and costs less than the clock reads around
// it, so timing every call would mostly measure the timer. The hook times
// below are the sampled spans scaled by the stride.
const hookStride = 16

// emuTimers accumulates the spans of the traced emulated pass. Raw span
// durations include the timer's own cost, clock.
type emuTimers struct {
	clock                                        time.Duration
	tests, samples, decisions, hooks, hooksTimed int
	wall, setup, run, sample, decide             time.Duration
	hookSetup, hookRun, hookTimed, estimate      time.Duration
	trailCV                                      []float64
}

// tracedSimProbe is core.SimProbe with NextSample timed. It implements
// core.RTTSampler as SimProbe does, so the engine sees the same probe.
type tracedSimProbe struct {
	p *core.SimProbe
	t *emuTimers
}

func (s *tracedSimProbe) SetRate(mbps float64) error { return s.p.SetRate(mbps) }
func (s *tracedSimProbe) Elapsed() time.Duration     { return s.p.Elapsed() }
func (s *tracedSimProbe) DataMB() float64            { return s.p.DataMB() }
func (s *tracedSimProbe) SampleRTT() (time.Duration, bool) {
	return s.p.SampleRTT()
}

func (s *tracedSimProbe) NextSample() (float64, bool) {
	hook := s.t.hookRun
	t0 := time.Now()
	v, ok := s.p.NextSample()
	s.t.sample += time.Since(t0) - (s.t.hookRun - hook)
	s.t.samples++
	return v, ok
}

// timedPolicy wraps a termination policy with a span around Decide.
type timedPolicy struct {
	core.TerminationPolicy
	decide    *time.Duration
	decisions *int
}

func (p timedPolicy) Decide(samples []float64, traj []estimate.TrajectoryPoint, elapsed time.Duration) core.Decision {
	t0 := time.Now()
	d := p.TerminationPolicy.Decide(samples, traj, elapsed)
	*p.decide += time.Since(t0)
	*p.decisions++
	return d
}

// tracedSimulate makes the calls SimulateTestContext makes for these
// options — link, profile machine, probe, engine with the default crossing
// rule — with a span around each layer.
func (t *emuTimers) tracedSimulate(ctx context.Context, in emuInput) (core.Result, error) {
	t0 := time.Now()
	cfg := linksim.Config{
		CapacityMbps: in.link.CapacityMbps,
		RTT:          in.link.RTT,
		Fluctuation:  in.link.Fluctuation,
		LossRate:     in.link.LossRate,
	}
	if cfg.RTT <= 0 {
		cfg.RTT = 40 * time.Millisecond
	}
	if in.link.ShapingMbps > 0 {
		cfg.Shaping = &linksim.Shaper{BurstMB: in.link.ShapingBurstMB, SustainedMbps: in.link.ShapingMbps}
	}
	inSetup := true
	if in.profile != nil {
		at := ranprofile.NewMachine(in.profile, in.link.Seed, ranprofile.MachineOptions{}).Hook()
		cfg.StateHook = func(d time.Duration) linksim.LinkState {
			t.hooks++
			if t.hooks%hookStride != 0 {
				return at(d)
			}
			h0 := time.Now()
			s := at(d)
			dt := time.Since(h0)
			t.hookTimed += dt
			t.hooksTimed++
			est := max(dt-t.clock, 0) * hookStride
			if inSetup {
				t.hookSetup += est
			} else {
				t.hookRun += est
			}
			return s
		}
	}
	hook := t.hookSetup
	link, err := linksim.New(cfg, in.link.Seed)
	if err != nil {
		return core.Result{}, err
	}
	probe := core.NewSimProbe(link)
	t1 := time.Now()
	inSetup = false
	t.setup += t1.Sub(t0) - (t.hookSetup - hook)
	res, err := core.RunContext(ctx, &tracedSimProbe{p: probe, t: t}, core.Config{
		Model:     in.model,
		Terminate: timedPolicy{core.CrossingPolicy{}, &t.decide, &t.decisions},
	})
	t.run += time.Since(t1)
	probe.Close()
	t.wall += time.Since(t0)
	t.tests++
	return res, err
}

// traceEmu reruns the inputs with every layer timed, under a CPU profile,
// and checks each traced result against the root API's.
func traceEmu(ctx context.Context, o options, inputs []emuInput, ref []emuOut, untracedP50 float64, r *result) error {
	clock := clockCost()
	t := emuTimers{clock: clock}
	var pass emuPass
	traced := func(in emuInput) (emuOut, error) {
		res, err := t.tracedSimulate(ctx, in)
		if err != nil {
			return emuOut{}, err
		}
		// The estimate layer has no seam on the path: replay its two calls
		// on the test's samples and trajectory, and check the replay.
		e0 := time.Now()
		est := estimate.Compute(res.Samples, res.Bandwidth)
		regime := estimate.ClassifyBDP(res.Trajectory)
		t.estimate += time.Since(e0)
		if est != res.Estimates || regime != res.Regime {
			return emuOut{}, fmt.Errorf("estimate replay %+v/%v differs from the result's %+v/%v", est, regime, res.Estimates, res.Regime)
		}
		t.trailCV = append(t.trailCV, trailCV(res.Samples))
		return outOf(res.Bandwidth, res.Duration, res.DataMB, res.Samples, res.Converged, res.RateChanges), nil
	}
	prof, err := cpuProfile(func() {
		pprof.Do(ctx, pprof.Labels("role", "client"), func(context.Context) {
			pass = runPass(inputs, o.budget(), r, ref, traced)
		})
	})
	if err != nil {
		return err
	}
	shares, total := cpuShares(prof)
	r.setShares(shares, total)

	n := float64(t.tests)
	wall := t.wall.Seconds()
	hook := t.hookSetup + t.hookRun
	coreSelf := t.run - t.sample - t.hookRun - t.decide
	// RunContext ends with estimate.Compute and ClassifyBDP; the replay
	// measured their cost, so core's self time leaves it out.
	coreSelf -= t.estimate
	r.set("timer.clock_ns", float64(clock), "ns")
	r.set("core.self_us", coreSelf.Seconds()*1e6/n, "us")
	r.set("core.decide_ns", perCallNs(t.decide, t.decisions, clock), "ns")
	r.layer("core.self_frac", coreSelf.Seconds()/wall)
	r.layer("core.decide_frac", t.decide.Seconds()/wall)
	r.layer("core.decisions_per_test", float64(t.decisions)/n)
	r.set("estimate.us", t.estimate.Seconds()*1e6/n, "us")
	r.layer("estimate.compute_frac", t.estimate.Seconds()/wall)
	r.set("linksim.setup_us", t.setup.Seconds()*1e6/n, "us")
	r.set("linksim.sample_us", perCallNs(t.sample, t.samples, clock)/1e3, "us")
	r.layer("linksim.setup_frac", t.setup.Seconds()/wall)
	r.layer("linksim.sample_frac", t.sample.Seconds()/wall)
	r.set("ranprofile.at_ns", perCallNs(t.hookTimed, t.hooksTimed, clock), "ns")
	r.layer("ranprofile.at_frac", hook.Seconds()/wall)
	r.layer("ranprofile.calls_per_test", float64(t.hooks)/n)
	r.layer("transport.trail_cv", quantile(t.trailCV, 0.5))
	tracedP50 := medianOver(pass.windows, func(w window) float64 { return w.p50 })
	r.set("traced.test_wall_ms_p50", tracedP50, "ms")
	r.layer("trace.overhead_frac", tracedP50/untracedP50-1)
	return nil
}
