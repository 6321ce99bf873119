// Command pdos-bench regenerates every table and figure of the paper's
// evaluation (§4): Figs. 1–4, 6–10, and 12 plus the Proposition 3
// cross-validation, the design ablations, and the extension studies. Series
// are written as CSV files into -out, with an optional single-page SVG
// report (-html); summary notes are printed to stdout. Each figure is
// compiled into scenario documents and executed through the scenario-native
// pipeline (internal/figures); the expanded points fan out across -parallel
// workers (each on a private kernel, so the CSVs are byte-identical to a
// sequential run). With -bench-json the command also
// measures the simulator's hot paths and writes a machine-readable
// benchmark report (ns/op, allocs/op, events/sec, peak gain per figure).
//
// Example:
//
// With -scale-bench the command instead runs the many-flow scaling sweep
// (100 → 50k victim flows through a proportionally scaled pulsed bottleneck,
// wheel kernel vs heap-kernel baseline) plus the hot paths, and writes the
// combined report (BENCH_2.json shape) to the given path; figures are skipped
// unless -figures selects some. Adding -foreground-flows N switches to the
// million-flow mode (BENCH_4.json shape): N packet-accurate flows per point,
// the rest of the population on the fluid macroflow tier; -scale-flows
// overrides the populations, -max-heap-mb guards against OOM by recording
// oversized points as skipped, and -scale-measure-sec shortens the windows
// for smoke runs.
//
// With -parallel-bench the command runs the parallel-engine speedup study
// (serial wheel kernel vs the conservative sharded engine at each -workers
// count, per -parallel-flows population) and writes the report (BENCH_3.json
// shape) to the given path.
//
// With -serve-bench the command runs the memoization study (BENCH_5.json
// shape): a live pdos-serve instance on a loopback listener with a fresh
// content-addressed cache, one scenario sweep submitted cold (every document
// computes on the worker pool) and the same sweep again warm (every document
// answered from the cache without touching the kernel), plus a byte-identity
// check of the cached artifacts against direct kernel recomputes.
//
// With -fusion-bench the command runs the event-fusion study (BENCH_6.json
// shape): the attacked -fusion-flows scale point on the golden two-event
// serialize→propagate link schedule and again on the fused
// one-event-per-hop default, reporting the kernel-events-per-packet
// reduction, the wall-clock speedup, and the byte-identity checks;
// -scale-measure-sec shortens the windows for smoke runs.
//
// -cache routes figure regeneration and -scale-bench points through a
// persistent content-addressed cache directory: re-running a sweep whose
// parameters and engine version are unchanged replays from disk.
//
// -cpuprofile and -memprofile write pprof profiles covering whichever mode
// ran, for `go tool pprof` digestion (see `make profile`).
//
// Example:
//
//	pdos-bench -scale quick -out results/ -html
//	pdos-bench -scale full -figures fig6,fig12 -parallel 8
//	pdos-bench -scale quick -bench-json results/BENCH_1.json
//	pdos-bench -scale-bench BENCH_2.json
//	pdos-bench -parallel-bench BENCH_3.json -workers 2,4,8
//	pdos-bench -scale-bench BENCH_4.json -foreground-flows 10000 -scale-flows 10000,100000,1000000
//	pdos-bench -serve-bench BENCH_5.json
//	pdos-bench -fusion-bench BENCH_6.json -fusion-flows 10000
//	pdos-bench -scale quick -cache results/cache
//	pdos-bench -scale quick -figures fig6 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/perf"
	"pulsedos/internal/report"
	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
	"pulsedos/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "pdos-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("pdos-bench", flag.ContinueOnError)
	var (
		scaleName = fs.String("scale", "quick", "quick or full")
		out       = fs.String("out", "results", "output directory for CSV series")
		only      = fs.String("figures", "", "comma-separated figure ids (default: all)")
		htmlOut   = fs.Bool("html", false, "also write <out>/index.html with SVG charts")
		parallel  = fs.Int("parallel", 1, "figure-level worker count (1 = sequential)")
		benchJSON = fs.String("bench-json", "", "write a hot-path benchmark report to this path")
		scaleJSON = fs.String("scale-bench", "", "run the many-flow scaling sweep and write the report to this path")
		scFlows   = fs.String("scale-flows", "", "comma-separated flow populations for -scale-bench (default: the BENCH_2 sweep)")
		scFg      = fs.Int("foreground-flows", 0, "packet-accurate foreground cap for -scale-bench; populations above it run a fluid background tier (the BENCH_4 million-flow mode)")
		scHeapMB  = fs.Int("max-heap-mb", 0, "skip -scale-bench points whose projected footprint exceeds this many MiB, recording them as skipped_oom")
		scMeasure = fs.Float64("scale-measure-sec", 0, "override the -scale-bench measurement window, seconds (smoke runs)")
		parJSON   = fs.String("parallel-bench", "", "run the parallel-engine speedup study and write the report to this path")
		workers   = fs.String("workers", "2,4,8", "comma-separated worker counts for -parallel-bench")
		parFlows  = fs.String("parallel-flows", "10000,50000", "comma-separated flow populations for -parallel-bench")
		serveJSON = fs.String("serve-bench", "", "run the pdos-serve memoization study and write the report to this path")
		serveWkr  = fs.Int("serve-workers", 2, "worker-pool size for -serve-bench")
		fuseJSON  = fs.String("fusion-bench", "", "run the event-fusion study (golden two-event vs fused link schedule) and write the report to this path")
		fuseFlows = fs.Int("fusion-flows", 10000, "victim population for -fusion-bench")
		cacheDir  = fs.String("cache", "", "content-addressed run cache directory for figures and -scale-bench (empty = uncached)")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile to this path")
		memProf   = fs.String("memprofile", "", "write a heap profile to this path on exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("== cpu profile -> %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "pdos-bench: memprofile:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "pdos-bench: memprofile:", err)
			}
			f.Close()
			fmt.Printf("== heap profile -> %s\n", *memProf)
		}()
	}
	if *fuseJSON != "" {
		return runFusionBench(*fuseJSON, *fuseFlows, *scMeasure)
	}
	if *serveJSON != "" {
		return runServeBench(*serveJSON, *serveWkr)
	}
	if *parJSON != "" {
		return runParallelBench(*parJSON, *workers, *parFlows)
	}
	// The persistent cache is shared by the figure pipeline and -scale-bench.
	var store *runcache.Store
	if *cacheDir != "" {
		var err error
		store, err = runcache.Open(*cacheDir, 0)
		if err != nil {
			return fmt.Errorf("-cache: %w", err)
		}
	}
	if *scaleJSON != "" {
		return runScaleBench(*scaleJSON, *scFlows, *scFg, *scHeapMB, *scMeasure, store)
	}
	var scale experiments.Scale
	switch *scaleName {
	case "quick":
		scale = experiments.QuickScale()
	case "full":
		scale = experiments.FullScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", *scaleName)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	// Open the report file up front: an unwritable path should fail before
	// the figures and hot-path benches spend minutes of work.
	var benchOut *os.File
	if *benchJSON != "" {
		f, err := os.Create(*benchJSON)
		if err != nil {
			return err
		}
		benchOut = f
		defer benchOut.Close()
	}
	wanted := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
	}
	selected := figures.IDs()
	if len(wanted) > 0 {
		kept := selected[:0]
		for _, id := range selected {
			if wanted[id] {
				kept = append(kept, id)
				delete(wanted, id)
			}
		}
		selected = kept
		for id := range wanted {
			return fmt.Errorf("-figures: unknown figure %q (known: %s)", id, strings.Join(figures.IDs(), ","))
		}
	}

	start := time.Now()
	generated, err := figures.RunJobs(context.Background(), selected, scale,
		figures.Options{Cache: store, Parallel: *parallel})
	if err != nil {
		return err
	}
	for _, fig := range generated {
		path := filepath.Join(*out, fig.ID+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		writeErr := experiments.WriteSeriesCSV(f, fig.Series)
		closeErr := f.Close()
		if writeErr != nil {
			return writeErr
		}
		if closeErr != nil {
			return closeErr
		}
		fmt.Printf("== %s: %s -> %s\n", fig.ID, fig.Title, path)
		for _, n := range fig.Notes {
			fmt.Printf("   %s\n", n)
		}
	}
	fmt.Printf("== %d figures in %.1fs (parallel=%d)\n", len(generated), time.Since(start).Seconds(), *parallel)
	if store != nil {
		st := store.Stats()
		fmt.Printf("== cache %s: %d hits, %d misses, %d entries (%.1f MiB)\n",
			*cacheDir, st.Hits, st.Misses, st.Entries, float64(st.Bytes)/(1<<20))
	}

	if *htmlOut {
		path := filepath.Join(*out, "index.html")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		writeErr := report.WriteHTML(f, "pulsedos — regenerated figures ("+*scaleName+" scale)", generated)
		closeErr := f.Close()
		if writeErr != nil {
			return writeErr
		}
		if closeErr != nil {
			return closeErr
		}
		fmt.Printf("== report -> %s\n", path)
	}

	if benchOut != nil {
		fmt.Println("== measuring hot paths (this takes a minute)...")
		results := perf.RunHotPaths()
		peaks := make([]perf.FigurePeak, 0, len(generated))
		for _, fig := range generated {
			peaks = append(peaks, perf.PeakOf(fig))
		}
		rep := perf.NewReport(results, peaks)
		writeErr := perf.WriteJSON(benchOut, rep)
		closeErr := benchOut.Close()
		if writeErr != nil {
			return writeErr
		}
		if closeErr != nil {
			return closeErr
		}
		for _, r := range rep.Benchmarks {
			fmt.Printf("   %-20s %12.1f ns/op %6d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
			if r.BaselineNsPerOp > 0 {
				fmt.Printf("   (%+.1f%% vs baseline %0.1f ns/op)", r.SpeedupPct, r.BaselineNsPerOp)
			}
			fmt.Println()
		}
		fmt.Printf("== bench report -> %s\n", *benchJSON)
	}
	return nil
}

// runScaleBench executes the BENCH_2/BENCH_4 pipeline: the many-flow scaling
// sweep (sequential — each point owns the process's wall clock and allocator
// counters) followed by the hot-path micro-benchmarks, written as one report.
// foreground > 0 selects the million-flow mode: that many packet-accurate
// flows, the rest of each population on the fluid macroflow tier, heap
// baseline off (BENCH_4.json shape). A non-nil store memoizes sweep points:
// physics replay exactly, perf fields as recorded at compute time.
func runScaleBench(path, flowsCSV string, foreground, maxHeapMB int, measureSec float64, store *runcache.Store) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()

	cfg := experiments.DefaultScaleSweepConfig()
	if foreground > 0 {
		cfg = experiments.MillionFlowSweepConfig()
		cfg.ForegroundFlows = foreground
	}
	if flowsCSV != "" {
		flows, err := parseIntList(flowsCSV)
		if err != nil {
			return fmt.Errorf("-scale-flows: %w", err)
		}
		cfg.FlowCounts = flows
	}
	if maxHeapMB > 0 {
		cfg.MaxHeapBytes = uint64(maxHeapMB) << 20
	}
	if measureSec > 0 {
		cfg.Measure = time.Duration(measureSec * float64(time.Second))
		cfg.ShortMeasure = cfg.Measure
		cfg.Warmup = cfg.Measure
	}
	cfg.Cache = store
	start := time.Now()
	points, err := experiments.ScaleSweep(cfg, func(msg string) {
		fmt.Println("== " + msg)
	})
	if err != nil {
		return err
	}
	fmt.Printf("== scale sweep done in %.1fs; measuring hot paths...\n", time.Since(start).Seconds())
	rep := perf.NewReport(perf.RunHotPaths(), nil)
	rep.Scale = points
	writeErr := perf.WriteJSON(out, rep)
	closeErr := out.Close()
	if writeErr != nil {
		return writeErr
	}
	if closeErr != nil {
		return closeErr
	}
	for _, r := range rep.Benchmarks {
		fmt.Printf("   %-24s %12.1f ns/op %6d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.BaselineNsPerOp > 0 {
			fmt.Printf("   (%+.1f%% vs baseline %0.1f ns/op)", r.SpeedupPct, r.BaselineNsPerOp)
		}
		fmt.Println()
	}
	for _, p := range rep.Scale {
		if p.SkippedOOM {
			fmt.Printf("   scale %8d flows: skipped (heap guard)\n", p.Flows)
			continue
		}
		fmt.Printf("   scale %8d flows", p.Flows)
		if p.FluidFlows > 0 {
			fmt.Printf(" (%d packet + %d fluid)", p.PacketFlows, p.FluidFlows)
		}
		fmt.Printf(": %.2fM events/sec", p.EventsPerSec/1e6)
		if p.SpeedupVsHeap > 0 {
			fmt.Printf(" (%.2fx vs heap)", p.SpeedupVsHeap)
		}
		fmt.Printf(", %.1f ns/flow/vsec, %.4f allocs/packet, RSS %.0f MiB\n",
			p.NsPerFlowPerSec, p.AllocsPerPacket, float64(p.PeakRSSBytes)/(1<<20))
	}
	fmt.Printf("== scale bench report -> %s\n", path)
	return nil
}

// runFusionBench executes the BENCH_6 pipeline: the attacked scale scenario
// at one population, run on the golden two-event link schedule and again on
// the fused one-event-per-hop default, reporting raw kernel events per
// packet, wall-clock, allocs/packet, and the byte-identity checks. The two
// legs run sequentially because each times wall-clock and reads the
// allocator counters. measureSec > 0 shortens the windows for smoke runs.
func runFusionBench(path string, flows int, measureSec float64) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()

	cfg := experiments.DefaultFusionBenchConfig()
	cfg.Flows = flows
	if measureSec > 0 {
		cfg.Scale.Measure = time.Duration(measureSec * float64(time.Second))
		cfg.Scale.ShortMeasure = cfg.Scale.Measure
		cfg.Scale.Warmup = cfg.Scale.Measure
	}
	res, err := experiments.FusionBench(cfg, func(msg string) {
		fmt.Println("== " + msg)
	})
	if err != nil {
		return err
	}
	rep := perf.NewReport(nil, nil)
	rep.Fusion = res
	writeErr := perf.WriteJSON(out, rep)
	closeErr := out.Close()
	if writeErr != nil {
		return writeErr
	}
	if closeErr != nil {
		return closeErr
	}
	fmt.Printf("== fusion bench report -> %s\n", path)
	return nil
}

// runParallelBench executes the BENCH_3 pipeline: for each configured flow
// population, the attacked scale scenario on the serial wheel kernel and then
// on the conservative parallel engine at each worker count, reporting
// wall-clock, events/sec, allocs/packet, and the determinism check per cell.
// Cells run sequentially because each one times wall-clock and reads the
// allocator counters.
func runParallelBench(path, workersCSV, flowsCSV string) error {
	workerCounts, err := parseIntList(workersCSV)
	if err != nil {
		return fmt.Errorf("-workers: %w", err)
	}
	flowCounts, err := parseIntList(flowsCSV)
	if err != nil {
		return fmt.Errorf("-parallel-flows: %w", err)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()

	cfg := experiments.DefaultScaleSweepConfig()
	cfg.FlowCounts = flowCounts
	start := time.Now()
	points, err := experiments.ShardSweep(cfg, workerCounts, func(msg string) {
		fmt.Println("== " + msg)
	})
	if err != nil {
		return err
	}
	fmt.Printf("== parallel sweep done in %.1fs\n", time.Since(start).Seconds())
	// No hot-path micro-benchmarks in this mode: nil keeps the report's
	// "benchmarks" key absent (omitempty) instead of an empty literal.
	rep := perf.NewReport(nil, nil)
	rep.Parallel = points
	writeErr := perf.WriteJSON(out, rep)
	closeErr := out.Close()
	if writeErr != nil {
		return writeErr
	}
	if closeErr != nil {
		return closeErr
	}
	for _, p := range rep.Parallel {
		fmt.Printf("   parallel %6d flows x %d workers: %6.1fs wall, %.2fM events/sec, %.4f allocs/packet",
			p.Flows, p.Workers, p.WallSeconds, p.EventsPerSec/1e6, p.AllocsPerPacket)
		if p.Workers > 1 {
			fmt.Printf(", %.2fx serial, match=%v", p.SpeedupVsSerial, p.MatchesSerial)
		}
		fmt.Println()
	}
	fmt.Printf("== parallel bench report -> %s\n", path)
	return nil
}

// runServeBench executes the BENCH_5 pipeline: pdos-serve on a loopback
// listener with a fresh cache, the sweep submitted cold (every document
// computes) and again warm (every document answered from the cache without
// touching the kernel), then the byte-identity check of the cached artifacts
// against direct kernel recomputes. The report records both walls, the
// warm/cold throughput ratio, and the cache counters.
func runServeBench(path string, workers int) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	defer out.Close()

	cacheDir, err := os.MkdirTemp("", "pdos-serve-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(cacheDir)
	srv, err := serve.New(serve.Options{CacheDir: cacheDir, Workers: workers})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 2 * time.Minute}

	docs := serveBenchDocs()
	fmt.Printf("== serve bench: %d scenarios against %s (%d workers, cache %s)\n",
		len(docs), base, workers, cacheDir)

	coldWall, cold, err := serveSweep(client, base, docs)
	if err != nil {
		return fmt.Errorf("cold sweep: %w", err)
	}
	for i, st := range cold {
		if st.State != serve.StateDone || st.Cached {
			return fmt.Errorf("cold run %d: state %s cached %v (want computed done): %s", i, st.State, st.Cached, st.Error)
		}
	}
	fmt.Printf("== cold sweep: %.2fs (every document computed)\n", coldWall.Seconds())

	warmWall, warm, err := serveSweep(client, base, docs)
	if err != nil {
		return fmt.Errorf("warm sweep: %w", err)
	}
	for i, st := range warm {
		if st.State != serve.StateDone || !st.Cached {
			return fmt.Errorf("warm run %d: state %s cached %v (want cache hit): %s", i, st.State, st.Cached, st.Error)
		}
	}
	fmt.Printf("== warm sweep: %.3fs (every document a cache hit)\n", warmWall.Seconds())

	fmt.Println("== verifying byte-identity of cached artifacts against direct recomputes...")
	identical, err := serveByteIdentity(client, base, docs, warm)
	if err != nil {
		return err
	}

	if warmWall <= 0 {
		warmWall = time.Microsecond
	}
	stats := srv.Cache().Stats()
	rep := perf.NewReport(nil, nil)
	rep.Serve = &perf.ServeBench{
		Scenarios:       len(docs),
		Workers:         workers,
		ColdWallSeconds: coldWall.Seconds(),
		WarmWallSeconds: warmWall.Seconds(),
		WarmSpeedup:     coldWall.Seconds() / warmWall.Seconds(),
		ByteIdentical:   identical,
		CacheHits:       stats.Hits,
		CacheMisses:     stats.Misses,
		CacheEvictions:  stats.Evictions,
		CacheDeduped:    stats.Deduped,
		CacheEntries:    stats.Entries,
		CacheBytes:      stats.Bytes,
	}
	writeErr := perf.WriteJSON(out, rep)
	closeErr := out.Close()
	if writeErr != nil {
		return writeErr
	}
	if closeErr != nil {
		return closeErr
	}
	fmt.Printf("== serve bench: %.1fx warm speedup, byte-identical=%v, %d hits / %d misses, %d entries (%.1f MiB)\n",
		rep.Serve.WarmSpeedup, identical, stats.Hits, stats.Misses, stats.Entries, float64(stats.Bytes)/(1<<20))
	fmt.Printf("== serve bench report -> %s\n", path)
	return nil
}

// serveBenchDocs returns the BENCH_5 sweep: distinct small dumbbell attack
// scenarios (different seeds and pulse gains, so different content addresses),
// each expensive enough that a cold compute dwarfs an HTTP round-trip.
func serveBenchDocs() []string {
	var docs []string
	for seed := 1; seed <= 4; seed++ {
		for _, gamma := range []float64{0.3, 0.5} {
			docs = append(docs, fmt.Sprintf(`{
  "name": "serve-bench-s%d-g%.1f",
  "topology": {"kind": "dumbbell", "flows": 10},
  "attack": {"kind": "aimd", "rateMbps": 20, "extentMs": 60, "gamma": %.1f},
  "warmupSec": 3,
  "measureSec": 6,
  "rateBinMs": 100,
  "measureJitter": true,
  "seed": %d
}`, seed, gamma, gamma, seed))
		}
	}
	return docs
}

// serveSweep submits every document concurrently with ?wait=1 and returns the
// wall time until the last response, plus the terminal statuses in doc order.
func serveSweep(client *http.Client, base string, docs []string) (time.Duration, []serve.JobStatus, error) {
	statuses := make([]serve.JobStatus, len(docs))
	errs := make([]error, len(docs))
	start := time.Now()
	var wg sync.WaitGroup
	for i, doc := range docs {
		wg.Add(1)
		go func(i int, doc string) {
			defer wg.Done()
			resp, err := client.Post(base+"/runs?wait=1", "application/json", strings.NewReader(doc))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode >= 300 {
				body, _ := io.ReadAll(resp.Body)
				errs[i] = fmt.Errorf("doc %d: HTTP %d: %s", i, resp.StatusCode, strings.TrimSpace(string(body)))
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&statuses[i]); err != nil {
				errs[i] = fmt.Errorf("doc %d: decode status: %w", i, err)
			}
		}(i, doc)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	return wall, statuses, nil
}

// serveByteIdentity recomputes every document directly through the kernel and
// compares each artifact byte for byte with what the server cached. Any
// divergence would mean the determinism premise the cache stores under is
// broken; the guard test on the committed report pins the result true.
func serveByteIdentity(client *http.Client, base string, docs []string, statuses []serve.JobStatus) (bool, error) {
	for i, doc := range docs {
		cfg, err := scenario.Load(strings.NewReader(doc))
		if err != nil {
			return false, fmt.Errorf("doc %d: %w", i, err)
		}
		direct, err := scenario.ComputeArtifacts(context.Background(), cfg, nil)
		if err != nil {
			return false, fmt.Errorf("doc %d: recompute: %w", i, err)
		}
		if len(statuses[i].Artifacts) != len(direct) {
			fmt.Printf("   doc %d: artifact set mismatch (cached %d, direct %d)\n", i, len(statuses[i].Artifacts), len(direct))
			return false, nil
		}
		for _, name := range statuses[i].Artifacts {
			resp, err := client.Get(base + "/runs/" + statuses[i].ID + "/artifacts/" + name)
			if err != nil {
				return false, fmt.Errorf("doc %d: fetch %s: %w", i, name, err)
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return false, fmt.Errorf("doc %d: read %s: %w", i, name, err)
			}
			if resp.StatusCode != http.StatusOK {
				return false, fmt.Errorf("doc %d: fetch %s: HTTP %d", i, name, resp.StatusCode)
			}
			if !bytes.Equal(data, direct[name]) {
				fmt.Printf("   doc %d: %s differs from direct recompute (%d vs %d bytes)\n", i, name, len(data), len(direct[name]))
				return false, nil
			}
		}
	}
	return true, nil
}

// parseIntList parses a comma-separated list of positive integers.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad entry %q (want positive integers)", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
