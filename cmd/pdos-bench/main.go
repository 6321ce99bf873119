// Command pdos-bench regenerates every table and figure of the paper's
// evaluation (§4): Figs. 1–4, 6–10, and 12 plus the Proposition 3
// cross-validation, the design ablations, the extension studies, and the
// many-flow scaling figure (measured vs Prop. 2 degradation by population).
// Series are written as CSV files into -out, with an optional single-page
// SVG report (-html); summary notes are printed to stdout. Every figure,
// the scaling one included, is compiled into scenario documents and executed
// through the scenario-native pipeline (internal/figures); the expanded
// points fan out across -parallel workers (each on a private kernel, so the
// CSVs are byte-identical to a sequential run).
//
// -cache routes the scenario points through a persistent content-addressed
// run cache directory: re-running a figure set whose parameters and engine
// version are unchanged replays from disk, byte-identical.
//
// -cpuprofile and -memprofile write pprof profiles of the run for
// `go tool pprof` digestion (see `make profile`).
//
// Performance is measured by the benchmark under benchmark/ (`make bench`,
// `make bench-compare`), not by this command.
//
// Example:
//
//	pdos-bench -scale quick -out results/ -html
//	pdos-bench -scale full -figures fig6,fig12 -parallel 8
//	pdos-bench -scale quick -cache results/cache
//	pdos-bench -scale quick -figures scale
//	pdos-bench -scale quick -figures fig6 -cpuprofile cpu.pprof -memprofile mem.pprof
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/report"
	"pulsedos/internal/runcache"
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
		cacheDir  = fs.String("cache", "", "content-addressed run cache directory (empty = uncached)")
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
	var store *runcache.Store
	if *cacheDir != "" {
		var err error
		store, err = runcache.Open(*cacheDir, 0)
		if err != nil {
			return fmt.Errorf("-cache: %w", err)
		}
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
	return nil
}
