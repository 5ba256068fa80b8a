// Command perfbench is the repository's benchmark: one bandwidth test as a
// user sees it, on both substrates (the virtual-time emulator and live UDP
// over loopback), plus the fleet load-generation path.
//
//	perfbench --workload emu-static --seed 1 --seconds 20 --trace 0
//
// Workloads: emu-static, emu-ran, live-loopback, fleet-day (see README.md).
// With --trace 0 the run measures the end-to-end metrics through the public
// root API; with --trace 1 it also times each layer from outside, through
// the seams the code exports, and profiles the CPU. Every result carries a
// machine fingerprint, and every run checks the program's outputs. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds it from the checkout's source.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// e2eMetrics are the end-to-end metrics of a --trace 0 run's result line,
// and layerMetrics the per-layer metrics of a --trace 1 run's, in the order
// of BENCHMARK.json. Each is defined on every workload; a per-layer share
// or count is 0 where the layer is not on the workload's path. The report
// lines above the result print every other metric measured; README.md says
// why those are not in the result line.
var (
	e2eMetrics   = []string{"setup_s", "cpu_us_per_mb", "peak_rss_mb"}
	layerMetrics = []string{
		"core.self_frac", "core.decide_frac", "core.decisions_per_test",
		"core.converged_frac", "core.samples_per_test", "core.escalations_per_test",
		"estimate.compute_frac",
		"linksim.setup_frac", "linksim.sample_frac",
		"ranprofile.at_frac", "ranprofile.calls_per_test",
		"transport.selection_frac", "transport.handshake_frac", "transport.first_sample_frac",
		"transport.ramp_frac", "transport.settle_frac", "transport.teardown_frac",
		"transport.sample_gap_p50_ratio", "transport.sample_gap_p99_ratio",
		"transport.trail_cv", "transport.loss_frac",
		"server.datagrams_per_test", "server.batch_p50", "server.send_errors_per_test",
		"cpu.server_frac", "cpu.client_frac", "cpu.runtime_frac", "cpu.syscall_frac",
		"cpu.wire_frac", "cpu.batchio_frac", "cpu.transport_frac", "cpu.core_frac",
		"cpu.estimate_frac", "cpu.linksim_frac", "cpu.ranprofile_frac",
		"cpu.fleet_frac", "cpu.loadgen_frac",
		"fleet.reject_frac", "fleet.failovers", "fleet.peak_concurrent", "loadgen.virtual_s_per_s",
		"allocs_per_test", "alloc_kb_per_test", "gc.cpu_frac", "trace.overhead_frac",
	}
)

// Settings shared by the workloads.
const (
	// setupRepeats is how many times a run sets its workload up from
	// scratch; setup_s is the median.
	setupRepeats = 15
	// runDeadline bounds a whole run, so a hung live test cannot keep the
	// process alive.
	runDeadline = 170 * time.Second
	// maxFailures bounds the check failures quoted in the report; all of
	// them are counted.
	maxFailures = 10
)

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// budget is how long one timed pass runs: the whole run for --trace 0, half
// of it for each of the untraced and traced passes of --trace 1.
func (o options) budget() time.Duration {
	if o.trace {
		return o.seconds / 2
	}
	return o.seconds
}

type metric struct {
	value float64
	unit  string
}

// result is what a workload measured and checked.
type result struct {
	link      string // fingerprint: "loopback" or "none (virtual time)"
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	order     []string
	notes     []string // extra report lines, such as the time-budget table
}

func newResult(link string) *result { return &result{link: link, metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{v, unit}
}

// layer records a per-layer metric under the unit its name implies.
func (r *result) layer(name string, v float64) { r.set(name, v, layerUnit(name)) }

// fail counts one failed output check.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < maxFailures {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setShares records the CPU-profile shares under the cpu.* names.
func (r *result) setShares(shares map[string]float64, samples int64) {
	for _, k := range []string{"wire", "batchio", "transport", "core", "estimate", "linksim", "ranprofile", "fleet", "loadgen", "runtime", "syscall"} {
		r.layer("cpu."+k+"_frac", shares[k])
	}
	r.layer("cpu.server_frac", shares["role.server"])
	r.layer("cpu.client_frac", shares["role.client"])
	r.set("cpu.profile_ms", float64(samples)/1e6, "ms")
	var rest []string
	for k, v := range shares {
		if !strings.HasPrefix(k, "role.") {
			rest = append(rest, fmt.Sprintf("%s=%.3f", k, v))
		}
	}
	sort.Strings(rest)
	r.notes = append(r.notes, "cpu profile shares: "+strings.Join(rest, " "))
}

var workloads = map[string]func(context.Context, options) (*result, error){
	"emu-static":    runEmuStatic,
	"emu-ran":       runEmuRAN,
	"live-loopback": runLive,
	"fleet-day":     runFleet,
}

func main() {
	workload := flag.String("workload", "", "workload: emu-static, emu-ran, live-loopback or fleet-day")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Int("seconds", 10, "seconds one timed pass measures")
	trace := flag.Int("trace", 0, "1 times each layer and profiles the CPU (per-layer metrics); 0 measures end to end")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload emu-static|emu-ran|live-loopback|fleet-day --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	opts := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := run(ctx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	res.set("peak_rss_mb", peakRSSMB(), "MB")
	res.set("fail_frac", ratio(float64(res.failed), float64(res.attempted)), "fraction")
	if err := report(os.Stdout, *workload, opts, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
}

// report prints every measured metric by name and unit, then the JSON
// result line with the metrics BENCHMARK.json names for this mode.
func report(w *os.File, workload string, o options, r *result) error {
	if r.attempted == 0 {
		return fmt.Errorf("no test was attempted")
	}
	names := e2eMetrics
	if o.trace {
		names = layerMetrics
	}
	out := map[string]map[string]any{}
	for _, name := range names {
		m, ok := r.metrics[name]
		if !ok {
			if !o.trace {
				return fmt.Errorf("end-to-end metric %s was not measured", name)
			}
			m = metric{0, layerUnit(name)} // the layer is not on this workload's path
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.value)
		}
		out[name] = map[string]any{"value": m.value, "unit": m.unit}
	}

	fp, err := json.Marshal(machineFingerprint(r.link))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", workload, o.seed, int(o.seconds.Seconds()), o.trace)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintf(w, "checks: attempted=%d failed=%d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// layerUnit is the unit of a per-layer metric, by its name's suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_cv"):
		return "fraction"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_per_s"):
		return "ratio"
	case strings.HasSuffix(name, "_kb_per_test"):
		return "KB"
	default:
		return "count"
	}
}
