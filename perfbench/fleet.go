package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"time"

	"github.com/mobilebandwidth/swiftest"
)

// The fleet-day set-up: the planner's 3-tier fleet for 5.5 Gbps, one
// diurnal day compressed into 30 virtual seconds at 5,200 peak concurrent
// clients of 1 Mbps each, flash crowds off.
const (
	fleetRequiredMbps = 5500
	fleetPeak         = 5200
	fleetDay          = 30 * time.Second
	// fleetSeeds is how many loadgen seeds a run rotates through; each is
	// run at least twice so its assignment digest can be compared.
	fleetSeeds = 3
)

// fleetRun is one GenerateLoad call and its report.
type fleetRun struct {
	rep       swiftest.LoadgenReport
	wall, cpu time.Duration
}

// deliveredMB is the data the day's servers delivered to its clients.
func (f fleetRun) deliveredMB() float64 {
	var mb float64
	for _, s := range f.rep.Servers {
		mb += s.DeliveredMB
	}
	return mb
}

func fleetPlan() (swiftest.DeployPlan, []swiftest.Placement, error) {
	plan, err := swiftest.PlanDeployment(swiftest.ServerCatalogue(), fleetRequiredMbps, 0.075, swiftest.PlanOptions{MinServers: 3})
	if err != nil {
		return plan, nil, fmt.Errorf("planning: %w", err)
	}
	placements, err := swiftest.PlaceAtIXPs(plan, nil)
	if err != nil {
		return plan, nil, fmt.Errorf("placing: %w", err)
	}
	return plan, placements, nil
}

func runFleet(ctx context.Context, o options) (*result, error) {
	r := newResult("none (virtual time)")
	var (
		plan       swiftest.DeployPlan
		placements []swiftest.Placement
	)
	rng := rand.New(rand.NewSource(o.seed))
	seeds := make([]int64, fleetSeeds)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	// Load runs on at most nproc goroutines: the workers that advance the
	// per-server links.
	workers := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	load := func(seed int64, horizon time.Duration, peak int) (swiftest.LoadgenReport, error) {
		return swiftest.GenerateLoad(ctx, swiftest.LoadgenConfig{
			Plan:           plan,
			Placements:     placements,
			Duration:       horizon,
			PeakConcurrent: peak,
			PerTestMbps:    1,
			Workers:        workers,
			Seed:           seed,
			BurstProb:      -1,
		})
	}

	// Set-up is the plan, its placement, and a warm-up day at a tenth of
	// the horizon and the load.
	setups := make([]float64, setupRepeats)
	for k := range setups {
		t0 := time.Now()
		var err error
		if plan, placements, err = fleetPlan(); err != nil {
			return nil, err
		}
		if _, err := load(seeds[0], fleetDay/10, fleetPeak/10); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups[k] = time.Since(t0).Seconds()
	}
	r.set("setup_s", median(setups), "s")
	day := func(i int) (swiftest.LoadgenReport, error) {
		return load(seeds[i%len(seeds)], fleetDay, fleetPeak)
	}

	mem, cpu0 := readMem(), cpuTime()
	runs, elapsed := fleetPass(o.budget(), r, day)
	cpu, md := cpuTime()-cpu0, mem.since()

	// Each day is one window: the figures are medians over days.
	var walls, tps, cpuPerMB, peaks []float64
	var completed, started, rejected, failovers float64
	for _, run := range runs {
		walls = append(walls, float64(run.wall)/1e6)
		tps = append(tps, float64(run.rep.TestsCompleted)/run.wall.Seconds())
		cpuPerMB = append(cpuPerMB, run.cpu.Seconds()*1e6/run.deliveredMB())
		completed += float64(run.rep.TestsCompleted)
		started += float64(run.rep.TestsStarted)
		rejected += float64(run.rep.TestsRejected)
		failovers += float64(run.rep.Failovers)
		peaks = append(peaks, float64(run.rep.PeakConcurrent))
	}
	n := float64(len(runs))
	r.set("tests_per_s", median(tps), "1/s")
	untracedP50 := quantile(walls, 0.5)
	r.set("test_wall_ms_p50", untracedP50, "ms")
	r.set("cpu_us_per_mb", median(cpuPerMB), "us/MB")
	r.set("days", n, "count")
	r.layer("fleet.reject_frac", rejected/(started+rejected))
	r.layer("fleet.failovers", failovers/n)
	r.layer("fleet.peak_concurrent", median(peaks))
	r.layer("loadgen.virtual_s_per_s", fleetDay.Seconds()*n/elapsed.Seconds())
	r.layer("allocs_per_test", float64(md.mallocs)/completed)
	r.layer("alloc_kb_per_test", float64(md.bytes)/1e3/completed)
	r.layer("gc.cpu_frac", ratio(md.gcCPU, cpu.Seconds()))

	if o.trace {
		var traced []fleetRun
		prof, err := cpuProfile(func() {
			pprof.Do(ctx, pprof.Labels("role", "fleet"), func(context.Context) {
				traced, _ = fleetPass(o.budget(), r, day)
			})
		})
		if err != nil {
			return nil, err
		}
		shares, total := cpuShares(prof)
		r.setShares(shares, total)
		var tw []float64
		for _, run := range traced {
			tw = append(tw, float64(run.wall)/1e6)
		}
		tracedP50 := quantile(tw, 0.5)
		r.set("traced.test_wall_ms_p50", tracedP50, "ms")
		r.layer("trace.overhead_frac", tracedP50/untracedP50-1)
	}
	return r, nil
}

// fleetPass runs compressed days one at a time, rotating the seeds, until
// budget has elapsed and every seed has run twice. Each day's tests count
// as attempted; an abandoned test (lost its server, no failover target)
// counts as failed, and so does every test of a day that errs or whose
// assignment digest differs from the seed's first day.
func fleetPass(budget time.Duration, r *result, day func(int) (swiftest.LoadgenReport, error)) ([]fleetRun, time.Duration) {
	var runs []fleetRun
	digests := map[int]string{}
	start := time.Now()
	for i := 0; i < 2*fleetSeeds || time.Since(start) < budget; i++ {
		t0, cpu0 := time.Now(), cpuTime()
		rep, err := day(i)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		tests := max(rep.TestsStarted, 1)
		r.attempted += tests
		k := i % fleetSeeds
		want, seen := digests[k]
		switch {
		case err != nil:
			r.fail("day %d: %v", i, err)
			r.failed += tests - 1
			continue
		case seen && rep.AssignmentDigest != want:
			r.fail("day %d: assignment digest %s, first day of this seed %s", i, rep.AssignmentDigest, want)
			r.failed += tests - 1
			continue
		}
		digests[k] = rep.AssignmentDigest
		for j := 0; j < rep.TestsAbandoned; j++ {
			r.fail("day %d: test abandoned", i)
		}
		runs = append(runs, fleetRun{rep: rep, wall: wall, cpu: cpu})
	}
	return runs, time.Since(start)
}
