package main

import (
	"bufio"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/mobilebandwidth/swiftest/internal/transport/batchio"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It is 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean is the arithmetic mean of xs, 0 when empty.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// trailCV is the coefficient of variation of a test's last 20 samples.
func trailCV(samples []float64) float64 {
	if len(samples) > 20 {
		samples = samples[len(samples)-20:]
	}
	m := mean(samples)
	var ss float64
	for _, s := range samples {
		ss += (s - m) * (s - m)
	}
	return ratio(math.Sqrt(ss/float64(len(samples))), m)
}

// ratio is a/b, or 0 when b is 0 (a layer with no work on the path).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// windowLen is the length of the slices a closed-loop pass is cut into.
const windowLen = 500 * time.Millisecond

// window is one slice of a closed-loop pass: its throughput, CPU per MB and
// wall-time percentiles. Reporting the median over windows keeps a short
// burst of interference from another process out of a run's figures.
type window struct {
	testsPerS, cpuUsPerMB, p50, p99 float64
}

// windower cuts a pass into windows as tests complete.
type windower struct {
	start time.Time
	cpu0  time.Duration
	mb    float64
	walls []float64 // ms, the open window's tests
	done  []window
}

func newWindower() *windower { return &windower{start: time.Now(), cpu0: cpuTime()} }

// add records one test of wallMS that moved mb, closing the window once it
// is windowLen old.
func (w *windower) add(wallMS, mb float64) {
	w.walls = append(w.walls, wallMS)
	w.mb += mb
	if time.Since(w.start) >= windowLen {
		w.close()
	}
}

func (w *windower) close() {
	now, cpu := time.Now(), cpuTime()
	if len(w.walls) > 0 {
		w.done = append(w.done, window{
			testsPerS:  float64(len(w.walls)) / now.Sub(w.start).Seconds(),
			cpuUsPerMB: ratio((cpu-w.cpu0).Seconds()*1e6, w.mb),
			p50:        quantile(w.walls, 0.5),
			p99:        quantile(w.walls, 0.99),
		})
	}
	w.walls, w.mb, w.start, w.cpu0 = w.walls[:0], 0, now, cpu
}

// windows returns the closed windows; the open one counts only when no
// window has closed.
func (w *windower) windows() []window {
	if len(w.done) == 0 {
		w.close()
	}
	return w.done
}

// medianOver is the median of one figure over windows.
func medianOver(ws []window, f func(window) float64) float64 {
	xs := make([]float64, len(ws))
	for i, w := range ws {
		xs[i] = f(w)
	}
	return median(xs)
}

// cpuTime is the process's user plus system CPU time: every goroutine of
// the benchmark, the in-process server on the live workload included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB: VmHWM, the
// high-water mark of this program's address space. ru_maxrss is only the
// fallback, because Linux keeps it across execve, so it would also report
// whatever the launching process had resident when it forked.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

// memDelta brackets a pass with runtime.MemStats and runtime/metrics reads:
// heap allocations and the CPU the garbage collector took.
type memDelta struct {
	mallocs, bytes uint64
	gcCPU          float64 // seconds
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return memDelta{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCPU: s[0].Value.Float64()}
}

// since returns the deltas from m to now.
func (m memDelta) since() memDelta {
	n := readMem()
	return memDelta{mallocs: n.mallocs - m.mallocs, bytes: n.bytes - m.bytes, gcCPU: n.gcCPU - m.gcCPU}
}

// clockCost is the median duration an empty span reads: the part of every
// span that is the timer itself, subtracted from per-call times so that a
// span of a cheap call does not mostly measure the clock.
func clockCost() time.Duration {
	spans := make([]float64, 100000)
	for i := range spans {
		t0 := time.Now()
		spans[i] = float64(time.Since(t0))
	}
	return time.Duration(median(spans))
}

// perCallNs is the mean duration of calls spans totalling d, in ns, less
// the timer's part of each span.
func perCallNs(d time.Duration, calls int, clock time.Duration) float64 {
	return ratio(float64(d)-float64(calls)*float64(clock), float64(calls))
}

// fingerprint describes the machine a result was measured on, so a number
// is never compared across machines by accident.
type fingerprint struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	CPUModel   string `json:"cpu_model"`
	UDPGSO     bool   `json:"udp_gso"`
	Link       string `json:"link"`
}

func machineFingerprint(link string) fingerprint {
	return fingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		Kernel:     kernelRelease(),
		CPUModel:   cpuModel(),
		UDPGSO:     probeGSO(),
		Link:       link,
	}
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// probeGSO reports whether the kernel accepts UDP segmentation offload on
// a loopback socket — the capability the server's batched send path uses.
func probeGSO() bool {
	c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return false
	}
	defer c.Close()
	return batchio.SetSegmentSize(c, 1200) == nil
}
