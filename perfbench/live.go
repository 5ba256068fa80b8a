package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/mobilebandwidth/swiftest"
	"github.com/mobilebandwidth/swiftest/internal/core"
	"github.com/mobilebandwidth/swiftest/internal/obs"
	"github.com/mobilebandwidth/swiftest/internal/transport"
	"github.com/mobilebandwidth/swiftest/internal/wire"
)

const (
	// liveUplinkMbps is the in-process server's uplink, the budget-VM
	// class of §5.2; it is the truth a live estimate is judged against.
	liveUplinkMbps = 100
	// liveBand is the sanity band: a live estimate must lie within ±20 %
	// of the uplink.
	liveBand = 0.2
	// liveSeeds is how many test seeds a run generates; tests cycle
	// through them with the tech models.
	liveSeeds = 64
	// liveSetupRepeats is how many times a run sets the live workload up;
	// fewer than setupRepeats, as each set-up includes a warm-up test.
	liveSetupRepeats = 7
	// liveWarmup is the MaxDuration of the warm-up test.
	liveWarmup = 200 * time.Millisecond
)

// liveTest is one live test outcome, with the server's bytes for it.
type liveTest struct {
	tech   string
	res    swiftest.Result
	sentMB float64
	wallMS float64
	cpu    time.Duration // process CPU, client and server, during the test
}

// check applies the live output checks: no error, protocol v2 negotiated,
// no more bytes received than the server sent, and an estimate within the
// sanity band of the uplink.
func (t liveTest) check() error {
	switch {
	case t.res.ProtocolVersion != 2:
		return fmt.Errorf("negotiated protocol v%d, want v2", t.res.ProtocolVersion)
	case t.res.DataMB > t.sentMB:
		return fmt.Errorf("received %.6f MB, server sent %.6f MB", t.res.DataMB, t.sentMB)
	case math.Abs(t.res.BandwidthMbps-liveUplinkMbps) > liveBand*liveUplinkMbps:
		return fmt.Errorf("estimate %.2f Mbps outside %g Mbps ±%g%%", t.res.BandwidthMbps, float64(liveUplinkMbps), liveBand*100)
	}
	return nil
}

// newLiveServer starts the in-process test server as deployed, with a
// metrics registry attached. Its goroutines carry the pprof label
// role=server, so a CPU profile separates server from client.
func newLiveServer(ctx context.Context, reg *swiftest.MetricsRegistry) (srv *swiftest.Server, err error) {
	pprof.Do(ctx, pprof.Labels("role", "server"), func(context.Context) {
		srv, err = swiftest.NewServer("127.0.0.1:0", swiftest.ServerOptions{UplinkMbps: liveUplinkMbps, Metrics: reg})
	})
	return srv, err
}

func runLive(ctx context.Context, o options) (*result, error) {
	r := newResult("loopback")
	var (
		models []*swiftest.Model
		srv    *swiftest.Server
		reg    *swiftest.MetricsRegistry
	)
	rng := rand.New(rand.NewSource(o.seed))
	seeds := make([]int64, liveSeeds)
	for i := range seeds {
		seeds[i] = rng.Int63() | 1 // a zero seed would ask for a clock-derived one
	}

	// Set-up is the models, the server, and a warm-up test cut short at
	// liveWarmup, so the first timed test finds pools and sockets ready.
	setups := make([]float64, liveSetupRepeats)
	for k := range setups {
		if srv != nil {
			srv.Close()
		}
		t0 := time.Now()
		var err error
		if models, err = techModels(); err != nil {
			return nil, err
		}
		reg = swiftest.NewMetricsRegistry()
		if srv, err = newLiveServer(ctx, reg); err != nil {
			return nil, fmt.Errorf("starting server: %w", err)
		}
		if _, err := swiftest.TestContext(ctx, swiftest.TestOptions{
			Servers:     []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: liveUplinkMbps}},
			Model:       models[k%len(models)],
			Seed:        seeds[k%len(seeds)],
			MaxDuration: liveWarmup,
		}); err != nil {
			srv.Close()
			return nil, fmt.Errorf("warm-up test: %w", err)
		}
		setups[k] = time.Since(t0).Seconds()
	}
	defer srv.Close()
	r.set("setup_s", median(setups), "s")

	servers := []swiftest.ServerAddr{{Addr: srv.Addr(), UplinkMbps: liveUplinkMbps}}
	root := func(i int) (swiftest.Result, error) {
		return swiftest.TestContext(ctx, swiftest.TestOptions{
			Servers: servers,
			Model:   models[i%len(models)],
			Seed:    seeds[i%len(seeds)],
		})
	}

	mem, cpu0 := readMem(), cpuTime()
	tests, elapsed := livePass(srv, o.budget(), 1, r, root)
	cpu, md := cpuTime()-cpu0, mem.since()

	var walls, durs, data, acc, cpuPerMB []float64
	var each []string
	for _, t := range tests {
		each = append(each, fmt.Sprintf("%s:%.0fms:%v:%.0fus/MB", t.tech, t.wallMS, t.res.Converged, t.cpu.Seconds()*1e6/t.res.DataMB))
		walls = append(walls, t.wallMS)
		durs = append(durs, t.res.Duration.Seconds())
		data = append(data, t.res.DataMB)
		acc = append(acc, 1-math.Abs(t.res.BandwidthMbps-liveUplinkMbps)/liveUplinkMbps)
		cpuPerMB = append(cpuPerMB, t.cpu.Seconds()*1e6/t.res.DataMB)
	}
	r.notes = append(r.notes, "live tests (tech:wall:converged:cpu): "+strings.Join(each, " "))
	n := float64(len(tests))
	r.set("tests_per_s", n/elapsed.Seconds(), "1/s")
	untracedP50 := quantile(walls, 0.5)
	r.set("test_wall_ms_p50", untracedP50, "ms")
	r.set("test_s_p50", quantile(durs, 0.5), "s")
	r.set("data_mb_p50", quantile(data, 0.5), "MB")
	r.set("accuracy_p50", quantile(acc, 0.5), "fraction")
	r.set("cpu_us_per_mb", median(cpuPerMB), "us/MB")
	r.layer("allocs_per_test", float64(md.mallocs)/n)
	r.layer("alloc_kb_per_test", float64(md.bytes)/1e3/n)
	r.layer("gc.cpu_frac", ratio(md.gcCPU, cpu.Seconds()))

	if o.trace {
		if err := traceLive(ctx, o, srv, reg, models, seeds, untracedP50, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// livePass runs live tests one at a time until budget has elapsed and at
// least atLeast tests have run, and checks every one. A test that errs or fails
// a check counts as failed and is kept out of the timing figures.
func livePass(srv *swiftest.Server, budget time.Duration, atLeast int, r *result, test func(i int) (swiftest.Result, error)) ([]liveTest, time.Duration) {
	var tests []liveTest
	start := time.Now()
	for i := 0; i < atLeast || time.Since(start) < budget; i++ {
		sent0 := srv.BytesSent()
		t0, cpu0 := time.Now(), cpuTime()
		res, err := test(i)
		t := liveTest{tech: techs[i%len(techs)].String(), res: res, wallMS: float64(time.Since(t0)) / 1e6, cpu: cpuTime() - cpu0}
		t.sentMB = float64(srv.BytesSent()-sent0) / 1e6
		r.attempted++
		if err == nil {
			err = t.check()
		}
		if err != nil {
			r.fail("live test %d (%s): %v", i, t.tech, err)
			continue
		}
		tests = append(tests, t)
	}
	return tests, time.Since(start)
}

// tracedUDPProbe is transport.UDPProbe with its first SetRate (the session
// handshake) timed and each NextSample return stamped. It implements
// core.ServerHealth as UDPProbe does, so the engine sees the same probe.
type tracedUDPProbe struct {
	p         *transport.UDPProbe
	handshake time.Duration
	opened    bool
	returns   []time.Time
}

func (w *tracedUDPProbe) SetRate(mbps float64) error {
	t0 := time.Now()
	err := w.p.SetRate(mbps)
	if !w.opened {
		w.handshake, w.opened = time.Since(t0), true
	}
	return err
}

func (w *tracedUDPProbe) NextSample() (float64, bool) {
	v, ok := w.p.NextSample()
	w.returns = append(w.returns, time.Now())
	return v, ok
}

func (w *tracedUDPProbe) Elapsed() time.Duration { return w.p.Elapsed() }
func (w *tracedUDPProbe) DataMB() float64        { return w.p.DataMB() }
func (w *tracedUDPProbe) ServersUsed() int       { return w.p.ServersUsed() }
func (w *tracedUDPProbe) ServersLost() int       { return w.p.ServersLost() }

// budgetRow is the time budget of one live test (ROADMAP item 2(a)).
type budgetRow struct {
	tech                                                            string
	wall, selection, handshake, firstSample, ramp, settle, teardown time.Duration
}

// liveTrace accumulates the traced live pass.
type liveTrace struct {
	rows      []budgetRow
	gapsMS    []float64
	trailCV   []float64
	decide    time.Duration
	decisions int
}

// tracedTest makes the calls TestContext makes for these options —
// selection, probe, engine, final report and Finish — with spans around
// selection, the session handshake and Finish, and a run-record trace
// whose events give ramp and settle.
func (lt *liveTrace) tracedTest(ctx context.Context, addr string, model *swiftest.Model, seed int64, tech string) (swiftest.Result, error) {
	t0 := time.Now()
	pool := &transport.ServerPool{Servers: []transport.PoolServer{{Addr: addr, UplinkMbps: liveUplinkMbps}}}
	if err := pool.RankByLatencyContext(ctx, 3, time.Second); err != nil {
		return swiftest.Result{}, fmt.Errorf("server selection: %w", err)
	}
	row := budgetRow{tech: tech, selection: time.Since(t0)}
	probe, err := transport.NewUDPProbeContext(ctx, pool, rand.New(rand.NewSource(seed)))
	if err != nil {
		return swiftest.Result{}, err
	}
	tr := obs.NewTrace(0)
	probe.SetMetrics(nil)
	probe.SetLostAfter(0)
	probe.SetProtocol(transport.ProtoAuto)
	probe.SetToken(wire.Token{})
	probe.SetTrace(tr)
	wp := &tracedUDPProbe{p: probe}
	res, err := core.RunContext(ctx, wp, core.Config{
		Model:     model,
		Trace:     tr,
		Terminate: timedPolicy{core.CrossingPolicy{}, &lt.decide, &lt.decisions},
	})
	probe.SetFinalReport(res.Estimates, res.Regime)
	f0 := time.Now()
	probe.Finish(res.Bandwidth, res.Duration)
	row.teardown = time.Since(f0)
	row.wall = time.Since(t0)
	if err != nil {
		return swiftest.Result{}, fmt.Errorf("probing: %w", err)
	}
	row.handshake = wp.handshake
	row.firstSample, row.ramp, row.settle = phases(tr.Events())
	lt.rows = append(lt.rows, row)
	for i := 1; i < len(wp.returns); i++ {
		lt.gapsMS = append(lt.gapsMS, float64(wp.returns[i].Sub(wp.returns[i-1]))/1e6)
	}
	lt.trailCV = append(lt.trailCV, trailCV(res.Samples))
	return swiftest.Result{
		BandwidthMbps:   res.Bandwidth,
		Duration:        res.Duration,
		DataMB:          res.DataMB,
		Samples:         res.Samples,
		Converged:       res.Converged,
		RateChanges:     res.RateChanges,
		ProtocolVersion: probe.NegotiatedVersion(),
	}, nil
}

// phases reads a test's run-record: first sample, ramp (rate_init to the
// last escalate) and settle (the last escalate, or rate_init, to
// converged or timeout).
func phases(events []obs.Event) (firstSample, ramp, settle time.Duration) {
	var init, lastEsc, end, first time.Duration
	for _, e := range events {
		switch e.Kind {
		case obs.EventRateInit:
			init, lastEsc = e.At, e.At
		case obs.EventEscalate:
			lastEsc = e.At
		case obs.EventSample:
			if first == 0 {
				first = e.At
			}
		case obs.EventConverged, obs.EventTimeout:
			end = e.At
		}
	}
	return first - init, lastEsc - init, end - lastEsc
}

func traceLive(ctx context.Context, o options, srv *swiftest.Server, reg *swiftest.MetricsRegistry, models []*swiftest.Model, seeds []int64, untracedP50 float64, r *result) error {
	var lt liveTrace
	var tests []liveTest
	snap0 := reg.Snapshot()
	prof, err := cpuProfile(func() {
		tests, _ = livePass(srv, o.budget(), len(techs), r, func(i int) (res swiftest.Result, err error) {
			pprof.Do(ctx, pprof.Labels("role", "client"), func(ctx context.Context) {
				res, err = lt.tracedTest(ctx, srv.Addr(), models[i%len(models)], seeds[i%len(seeds)], techs[i%len(techs)].String())
			})
			return res, err
		})
	})
	if err != nil {
		return err
	}
	snap := reg.Snapshot()
	shares, total := cpuShares(prof)
	r.setShares(shares, total)

	n := float64(len(lt.rows))
	var walls []float64
	var wall, sel, hs, first, ramp, settle, tear time.Duration
	for _, row := range lt.rows {
		walls = append(walls, float64(row.wall)/1e6)
		wall += row.wall
		sel += row.selection
		hs += row.handshake
		first += row.firstSample
		ramp += row.ramp
		settle += row.settle
		tear += row.teardown
	}
	for _, p := range []struct {
		name string
		d    time.Duration
	}{{"selection", sel}, {"handshake", hs}, {"first_sample", first}, {"ramp", ramp}, {"settle", settle}, {"teardown", tear}} {
		r.set("transport."+p.name+"_ms", float64(p.d)/1e6/n, "ms")
		r.layer("transport."+p.name+"_frac", p.d.Seconds()/wall.Seconds())
	}
	r.set("transport.sample_gap_ms_p50", quantile(lt.gapsMS, 0.5), "ms")
	r.set("transport.sample_gap_ms_p99", quantile(lt.gapsMS, 0.99), "ms")
	r.layer("transport.sample_gap_p50_ratio", quantile(lt.gapsMS, 0.5)/50)
	r.layer("transport.sample_gap_p99_ratio", quantile(lt.gapsMS, 0.99)/50)
	r.layer("transport.trail_cv", quantile(lt.trailCV, 0.5))

	var recv, sent, samples, escal float64
	converged := 0
	for _, t := range tests {
		recv += t.res.DataMB
		sent += t.sentMB
		samples += float64(len(t.res.Samples))
		escal += float64(t.res.RateChanges)
		if t.res.Converged {
			converged++
		}
	}
	r.layer("transport.loss_frac", 1-ratio(recv, sent))
	r.layer("core.decisions_per_test", float64(lt.decisions)/n)
	r.set("core.decide_ns", perCallNs(lt.decide, lt.decisions, clockCost()), "ns")
	r.layer("core.decide_frac", lt.decide.Seconds()/wall.Seconds())
	r.layer("core.converged_frac", float64(converged)/n)
	r.layer("core.samples_per_test", samples/n)
	r.layer("core.escalations_per_test", escal/n)

	counter := func(name string) float64 { return float64(snap.Counters[name] - snap0.Counters[name]) }
	r.layer("server.datagrams_per_test", counter("swiftest_server_datagrams_sent_total")/n)
	r.layer("server.send_errors_per_test", counter("swiftest_server_send_errors_total")/n)
	batch := snap.Histograms["swiftest_server_batch_datagrams"]
	r.layer("server.batch_p50", histQuantile(batch, snap0.Histograms["swiftest_server_batch_datagrams"], 0.5))

	tracedP50 := quantile(walls, 0.5)
	r.set("traced.test_wall_ms_p50", tracedP50, "ms")
	r.layer("trace.overhead_frac", tracedP50/untracedP50-1)
	r.notes = append(r.notes, budgetTable(lt.rows)...)
	return nil
}

// histQuantile is the q-quantile of the observations between two snapshots
// of one histogram, read as the upper bound of the bucket it falls in.
func histQuantile(now, before obs.HistogramSnapshot, q float64) float64 {
	var total uint64
	counts := make([]uint64, len(now.Counts))
	for i := range counts {
		counts[i] = now.Counts[i]
		if i < len(before.Counts) {
			counts[i] -= before.Counts[i]
		}
		total += counts[i]
	}
	var cum uint64
	for i, c := range counts {
		cum += c
		if total > 0 && float64(cum) >= q*float64(total) {
			return now.Bounds[min(i, len(now.Bounds)-1)] // the +Inf bucket reads as the top bound
		}
	}
	return 0
}

// budgetTable prints the median time budget of a live test per tech model.
func budgetTable(rows []budgetRow) []string {
	byTech := map[string][]budgetRow{}
	for _, row := range rows {
		byTech[row.tech] = append(byTech[row.tech], row)
	}
	names := make([]string, 0, len(byTech))
	for k := range byTech {
		names = append(names, k)
	}
	sort.Strings(names)
	lines := []string{"time budget per test, median ms (first_sample overlaps ramp/settle):",
		fmt.Sprintf("  %-5s %5s %9s %9s %9s %12s %9s %9s %9s", "tech", "tests", "wall", "selection", "handshake", "first_sample", "ramp", "settle", "teardown")}
	for _, tech := range names {
		rs := byTech[tech]
		col := func(f func(budgetRow) time.Duration) float64 {
			xs := make([]float64, len(rs))
			for i, row := range rs {
				xs[i] = float64(f(row)) / 1e6
			}
			return median(xs)
		}
		lines = append(lines, strings.TrimRight(fmt.Sprintf("  %-5s %5d %9.1f %9.2f %9.2f %12.1f %9.1f %9.1f %9.2f", tech, len(rs),
			col(func(b budgetRow) time.Duration { return b.wall }),
			col(func(b budgetRow) time.Duration { return b.selection }),
			col(func(b budgetRow) time.Duration { return b.handshake }),
			col(func(b budgetRow) time.Duration { return b.firstSample }),
			col(func(b budgetRow) time.Duration { return b.ramp }),
			col(func(b budgetRow) time.Duration { return b.settle }),
			col(func(b budgetRow) time.Duration { return b.teardown })), " "))
	}
	return lines
}
