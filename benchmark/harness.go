package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables below
// are the benchmark's contract with BENCHMARK.json: TestSpecMatchesBenchmark
// checks that the file declares exactly these names and units.
type metricSpec struct {
	name, unit string
}

// endToEnd is what a user of pulsedos sees, measured with tracing off and
// calibrated (calibrate.go). Each workload defines its compute and cached
// operations (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"compute_ms", "ms"},
	{"cached_ms", "ms"},
	{"docs_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// timePower is the power of time in each calibrated end-to-end metric's
// unit: calibration multiplies a time by the factor and divides a rate.
var timePower = map[string]int{"setup_s": 1, "compute_ms": 1, "cached_ms": 1, "docs_per_s": -1}

// perLayer is read from the traced run, uncalibrated. Counts are per workload unit (one
// attacked run, one cold figure-set regeneration, the serve-mix recompute
// sample) so they repeat exactly for a seed; metrics of a layer a workload
// does not cross read 0 and are never time units.
var perLayer = []metricSpec{
	{"scenario.load_us", "us"},
	{"scenario.key_us", "us"},
	{"scenario.encode_ms", "ms"},
	{"topo.build_ms", "ms"},
	{"topo.heap_mib_after_build", "MiB"},
	{"experiments.runctx_ms", "ms"},
	{"experiments.ns_per_pkt", "ns"},
	{"experiments.allocs_per_pkt", "allocs/pkt"},
	{"experiments.warmup_ms_per_vsec", "ms/vs"},
	{"experiments.attack_ms_per_vsec", "ms/vs"},
	{"sim.kernel_events", "count"},
	{"sim.model_events", "count"},
	{"sim.skipped_events", "count"},
	{"sim.rto_ticks", "count"},
	{"sim.events_per_pkt", "events/pkt"},
	{"sim.ns_per_event", "ns"},
	{"sim.engine_windows", "count"},
	{"sim.events_per_window", "events/window"},
	{"sim.window_vus", "vus"},
	{"netem.bottleneck_golden", "ratio"},
	{"netem.bottleneck_pkts", "count"},
	{"netem.drop_ratio", "ratio"},
	{"tcp.segments", "count"},
	{"tcp.retx_ratio", "ratio"},
	{"tcp.timeouts", "count"},
	{"tcp.fast_recoveries", "count"},
	{"attack.pulses", "count"},
	{"attack.packets", "count"},
	{"attack.pkt_share", "ratio"},
	{"runcache.open_us_per_entry", "us"},
	{"runcache.get_hit_us_p50", "us"},
	{"runcache.get_hit_us_p99", "us"},
	{"runcache.put_ms_p50", "ms"},
	{"runcache.bytes_per_entry", "bytes"},
	{"runcache.misses_per_compute", "ratio"},
	{"pool.run_ms_p50", "ms"},
	{"pool.run_ms_p99", "ms"},
	{"pool.overhead_ms_p50", "ms"},
	{"pool.overhead_ms_p99", "ms"},
	{"pool.busy_ratio", "ratio"},
	{"figures.points", "count"},
	{"figures.unique_points", "count"},
	{"figures.dedup_ratio", "ratio"},
	{"serve.hit_ratio", "ratio"},
	{"serve.dedup_joins", "count"},
	{"scenario.self_pct", "%"},
	{"topo.self_pct", "%"},
	{"attack.self_pct", "%"},
	{"experiments.self_pct", "%"},
	{"runcache.self_pct", "%"},
	{"figures.self_pct", "%"},
	{"serve.self_pct", "%"},
	{"http.self_pct", "%"},
	{"benchmark.self_pct", "%"},
	{"benchmark.trace_overhead_pct", "%"},
}

// selfLayers are the span-name prefixes whose self time the *.self_pct
// metrics report.
var selfLayers = []string{"scenario", "topo", "attack", "experiments", "runcache", "figures", "serve", "http", "benchmark"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envInfo records what the numbers were measured on.
type envInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GOOS       string `json:"goos"`
	Commit     string `json:"commit"`
	Workers    int    `json:"workers"`
	Clients    int    `json:"clients"`
}

// result is everything one workload run produced; it is written as
// <out>/<workload>.seed<N>.trace<T>.json and read back by compare.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Env       envInfo           `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	ErrorRate float64           `json:"error_rate"`
	Errors    []string          `json:"errors,omitempty"`
	Notes     []string          `json:"notes,omitempty"`
	Digests   map[string]string `json:"digests"`
	// Metrics holds the reported set: every end-to-end metric untraced,
	// every per-layer metric traced.
	Metrics map[string]metric `json:"metrics"`
	// Detail holds workload-specific numbers behind the reported set, such
	// as serve-mix's tail latencies.
	Detail map[string]metric `json:"detail,omitempty"`
	// Samples holds the untraced per-operation latencies (ms) the compute_ms
	// and cached_ms medians were taken over, in the order they ran (attack
	// and figures; serve-mix's thousands of requests are summarized in
	// Detail instead).
	Samples map[string][]float64 `json:"samples,omitempty"`
}

// maxErrors bounds the error strings kept in a result; the failed count
// keeps counting past it.
const maxErrors = 20

// bench is one workload invocation's shared state.
type bench struct {
	seed    int64
	seconds float64
	traced  bool
	root    string // repository root (holds scenarios/)
	work    string // scratch directory, removed when the run ends
	size    sizes
	pinned  bool // full-size run: digests are compared with pins.json
	cal     calibrator

	mu  sync.Mutex
	res result
}

// calibrateIfDue takes a reference sample between operations when one is
// due.
func (b *bench) calibrateIfDue() {
	if b.cal.due() {
		b.cal.sample()
	}
}

// attempt counts one operation or check.
func (b *bench) attempt() {
	b.mu.Lock()
	b.res.Attempted++
	b.mu.Unlock()
}

// failf counts one failed operation or check and keeps its message.
func (b *bench) failf(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.res.Failed++
	if len(b.res.Errors) < maxErrors {
		b.res.Errors = append(b.res.Errors, fmt.Sprintf(format, args...))
	}
}

// check counts one check and fails it unless ok.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempt()
	if !ok {
		b.failf(format, args...)
	}
}

// note records a caveat about the run in its result.
func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	b.res.Notes = append(b.res.Notes, fmt.Sprintf(format, args...))
	b.mu.Unlock()
}

// digest records a named output digest and compares it with the pin for
// this seed when the run is full size.
func (b *bench) digest(name, sum string) {
	b.mu.Lock()
	b.res.Digests[name] = sum
	b.mu.Unlock()
	if !b.pinned {
		return
	}
	want, ok := pinFor(name, b.seed)
	if !ok {
		return
	}
	b.check(want == sum, "%s digest for seed %d: got %s, pinned %s", name, b.seed, sum, want)
}

// docSeed maps the benchmark seed onto a scenario seed. Scenario documents
// read seed 0 as their kind default, which is 1, so 0 and 1 coincide.
func (b *bench) docSeed() uint64 {
	if b.seed == 0 {
		return 1
	}
	return uint64(b.seed)
}

// phaseSeconds is how long each measured phase runs: all of -seconds
// untraced, or half of it for each of the untraced and traced phases.
func (b *bench) phaseSeconds() float64 {
	if b.traced {
		return b.seconds / 2
	}
	return b.seconds
}

// another reports whether a loop that started at start may begin another
// iteration: the first always runs, and a later one only if it should end
// within the seconds, taking the previous iteration's length as its own, so
// a phase ends near its seconds however long one operation takes.
func another(start time.Time, seconds float64, iterations int, previous time.Duration) bool {
	return iterations == 0 || (time.Since(start)+previous).Seconds() <= seconds
}

func sha(data []byte) string {
	s := sha256.Sum256(data)
	return hex.EncodeToString(s[:])
}

// ms and us convert durations to the float units metrics use.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// percentile interpolates linearly between closest ranks (p in [0,100]).
// It is NaN for no samples, which emit rejects, so a workload that forgot to
// measure something fails loudly.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// docsPerSecond is the documents answered per second of operation time:
// docsPerOp for every operation over the sum of their latencies (ms), so
// harness work between operations does not count.
func docsPerSecond(docsPerOp int, opsMs ...[]float64) float64 {
	var n int
	var total float64
	for _, ops := range opsMs {
		n += len(ops)
		for _, v := range ops {
			total += v
		}
	}
	return float64(n*docsPerOp) / (total / 1000)
}

// ratio is a/b, 0 when b is 0 (a layer the workload does not cross).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM line in /proc/self/status")
}

// heapMiB reads the live heap; it stops the world briefly, so only traced
// phases call it.
func heapMiB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func environment(workers, clients int) envInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOOS:       runtime.GOOS,
		Commit:     commit,
		Workers:    workers,
		Clients:    clients,
	}
}

// compactJSON is the digest form of a JSON artifact that passed through a
// re-indenting encoder (serve embeds result.json in its JobStatus).
func compactJSON(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
