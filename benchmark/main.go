// Command benchmark measures pulsedos on the path users run — scenario
// documents through scenario.Config and experiments.RunCtx, memoized by the
// run cache, behind pdos-serve's HTTP API — end to end and layer by layer.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash benchmark/run.sh --workload attack-10k --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload all --seed 2 --seconds 20 --out results-dir
//
// Each run prints every metric as "name value unit" and ends with one JSON
// line {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. It also writes the
// full result, and with --trace 1 the spans, under --out. README.md lists the
// workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// sizes scales every workload. fullSize is what BENCHMARK.json runs; the
// package test runs tinySize through the same code.
type sizes struct {
	attackFlows      int
	attackWarmupSec  float64
	attackMeasureSec float64
	attackCached     int      // cached resubmissions after each attacked run
	figuresWarm      int      // warm regenerations after each cold one
	figureIDs        []string // nil runs the paper set through figures.AllFigures
	serveRequests    int      // requests per phase; 0 runs for the phase's seconds
	serveRestart     int      // completed misses before the server restarts
	setupReps        int
	referenceEvents  int // reference kernel events per calibration sample
}

var fullSize = sizes{
	attackFlows:      10000,
	attackWarmupSec:  1,
	attackMeasureSec: 1,
	attackCached:     20,
	figuresWarm:      4,
	serveRestart:     128,
	setupReps:        5,
	referenceEvents:  1500000,
}

// workload is one named benchmark input. run returns the end-to-end
// metrics (untraced phase), the per-layer metrics (traced phase, nil when
// untraced) and workload-specific detail.
type workload struct {
	name string
	run  func(b *bench) (outcome, error)
}

type outcome struct {
	endToEnd map[string]float64
	perLayer map[string]float64
	detail   map[string]metric
	samples  map[string][]float64
	tr       *tracer
}

var workloads = []workload{
	{"attack-10k", func(b *bench) (outcome, error) { return runAttack(b, 1) }},
	{"attack-10k-2w", func(b *bench) (outcome, error) { return runAttack(b, 2) }},
	{"figures-paper", runFigures},
	{"serve-mix", runServe},
}

func main() {
	if runKernelIfAsked() {
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measured seconds; a traced run splits them between its untraced and traced phases")
	trace := fs.Int("trace", 0, "1 adds a traced phase and reports the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for result JSON and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "benchmark: usage: -workload NAME|all [-seed N] [-seconds S] [-trace 0|1] [-out DIR]")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s, or all)\n", *name, workloadNames())
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	scratch := filepath.Join(root, ".bench_build")
	res, tr, err := execute(*w, root, scratch, *seed, *seconds, *trace == 1, fullSize, true)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *name, err)
		return 1
	}
	if err := save(res, tr, *out); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := report(stdout, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	s := ""
	for i, w := range workloads {
		if i > 0 {
			s += ", "
		}
		s += w.name
	}
	return s
}

// runAll runs every workload in a child process of its own, so each one's
// peak RSS is its own, and fails if any child fails.
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		childArgs := append([]string{}, args...)
		for i := range childArgs {
			if (childArgs[i] == "-workload" || childArgs[i] == "--workload") && i+1 < len(childArgs) {
				childArgs[i+1] = w.name
			}
			if childArgs[i] == "-workload=all" || childArgs[i] == "--workload=all" {
				childArgs[i] = "-workload=" + w.name
			}
		}
		cmd := exec.Command(self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// repoRoot finds the repository root — the directory holding scenarios/
// and the simulator's go.mod — from the working directory or its parent
// (the package test runs in benchmark/).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return "", err
		}
		if fi, err := os.Stat(filepath.Join(abs, "scenarios")); err == nil && fi.IsDir() {
			return abs, nil
		}
	}
	return "", errors.New("no scenarios/ directory here or one level up; run from the repository root")
}

// execute runs one workload with its scratch files in a fresh directory
// under scratch and assembles its result. pinned compares the output digests
// with pins.json (full-size runs only).
func execute(w workload, root, scratch string, seed int64, seconds float64, traced bool, size sizes, pinned bool) (*result, *tracer, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	b := &bench{
		seed: seed, seconds: seconds, traced: traced,
		root: root, work: work, size: size, pinned: pinned,
		res: result{Workload: w.name, Seed: seed, Trace: traced, Seconds: seconds, Digests: map[string]string{}},
	}
	b.cal.events = size.referenceEvents
	b.cal.sample()
	b.cal.sample()
	oc, err := w.run(b)
	if err != nil {
		return nil, nil, err
	}
	b.cal.sample()
	b.cal.sample()
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, nil, err
	}
	if oc.endToEnd == nil {
		return nil, nil, errors.New("workload reported no end-to-end metrics")
	}
	if oc.detail == nil {
		oc.detail = map[string]metric{}
	}
	factor, err := b.cal.factor()
	if err != nil {
		return nil, nil, err
	}
	for _, s := range endToEnd {
		if p, ok := timePower[s.name]; ok {
			oc.detail["raw."+s.name] = metric{Value: oc.endToEnd[s.name], Unit: s.unit}
			oc.endToEnd[s.name] *= math.Pow(factor, float64(p))
		}
	}
	oc.endToEnd["peak_rss_mib"] = rss
	oc.detail["calibration.factor"] = metric{Value: factor, Unit: "ratio"}
	oc.detail["calibration.kernel_ms"] = metric{Value: referenceMs / factor, Unit: "ms"}

	res := &b.res
	specs, values := endToEnd, oc.endToEnd
	if traced {
		specs, values = perLayer, oc.perLayer
	}
	res.Metrics = make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("metric %s not measured (got %v)", s.name, v)
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
	}
	if len(values) != len(specs) {
		return nil, nil, fmt.Errorf("workload reported %d metrics, the benchmark declares %d", len(values), len(specs))
	}
	res.Detail, res.Samples = oc.detail, oc.samples
	if traced {
		// A traced run reports per-layer metrics; keep its end-to-end
		// numbers as detail so the trace overhead stays auditable.
		if res.Detail == nil {
			res.Detail = map[string]metric{}
		}
		for _, s := range endToEnd {
			res.Detail["untraced."+s.name] = metric{Value: oc.endToEnd[s.name], Unit: s.unit}
		}
	}
	res.Correct = res.Failed == 0
	if res.Attempted > 0 {
		res.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	return res, oc.tr, nil
}

// save writes the result, and the spans of a traced run, under dir.
func save(res *result, tr *tracer, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := fmt.Sprintf("%s.seed%d.trace%d", res.Workload, res.Seed, btoi(res.Trace))
	raw, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if tr != nil {
		return tr.write(filepath.Join(dir, "trace-"+base+".jsonl"))
	}
	return nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// report prints every metric as "name value unit", the errors and notes,
// and last the one-line JSON summary.
func report(w io.Writer, res *result) error {
	fmt.Fprintf(w, "# %s seed=%d trace=%v seconds=%g num_cpu=%d gomaxprocs=%d workers=%d clients=%d %s %s/%s commit=%s\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.Env.NumCPU, res.Env.GOMAXPROCS, res.Env.Workers,
		res.Env.Clients, res.Env.GoVersion, res.Env.GOOS, res.Env.GOARCH, res.Env.Commit)
	printSorted(w, res.Metrics, "")
	printSorted(w, res.Detail, "detail.")
	fmt.Fprintf(w, "error_rate %s ratio (%d failed of %d attempted)\n", fmtFloat(res.ErrorRate), res.Failed, res.Attempted)
	for _, k := range sortedKeys(res.Digests) {
		fmt.Fprintf(w, "digest %s %s\n", k, res.Digests[k])
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func printSorted(w io.Writer, m map[string]metric, prefix string) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "%s%s %s %s\n", prefix, k, fmtFloat(m[k].Value), m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
