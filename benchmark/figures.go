package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/figures"
	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
)

// figuresParallel is the point pool size, one per CPU of the 2-vCPU
// machine the baseline was recorded on.
const figuresParallel = 2

// figuresRun is one figures-paper invocation. The compute operation
// regenerates the paper figure set at QuickScale into an empty run cache;
// each cached operation regenerates it again from the filled cache.
type figuresRun struct {
	b      *bench
	scale  experiments.Scale
	ids    []string
	csv    []byte          // the figure CSVs every regeneration must reproduce
	ref    *runcache.Store // filled by the first regeneration
	refDir string
	points int // expanded points per regeneration
	req    int
}

type figuresPhase struct {
	cold, warm     []float64 // ms per operation
	run, overhead  []float64 // ms per computed point (traced)
	openPerEntry   []float64 // µs (traced)
	unique, misses int       // last traced cycle's computed points and store misses
}

func runFigures(b *bench) (outcome, error) {
	b.res.Env = environment(figuresParallel, 1)
	ctx := context.Background()
	f := &figuresRun{b: b, scale: experiments.QuickScale()}
	f.scale.Seed = b.docSeed()
	f.ids = b.size.figureIDs

	f.refDir = filepath.Join(b.work, "ref")
	var err error
	if f.ref, err = runcache.Open(f.refDir, 0); err != nil {
		return outcome{}, err
	}
	figs, err := f.regenerate(ctx, f.ref)
	if err != nil {
		return outcome{}, fmt.Errorf("reference regeneration: %w", err)
	}
	if f.ids == nil {
		for _, fig := range figs {
			f.ids = append(f.ids, fig.ID)
		}
	}
	if f.csv, err = figureCSV(figs); err != nil {
		return outcome{}, err
	}
	pts, err := f.compile(nil, 0, 0)
	if err != nil {
		return outcome{}, err
	}
	f.points = len(pts)

	setup, err := f.setup()
	if err != nil {
		return outcome{}, err
	}
	untraced := f.phase(ctx, nil, nil)
	oc := outcome{
		endToEnd: map[string]float64{
			"setup_s":    setup,
			"compute_ms": median(untraced.cold),
			"cached_ms":  median(untraced.warm),
			"docs_per_s": docsPerSecond(f.points, untraced.cold, untraced.warm),
		},
		detail: map[string]metric{
			"cold_ops":  {float64(len(untraced.cold)), "count"},
			"warm_ops":  {float64(len(untraced.warm)), "count"},
			"points":    {float64(f.points), "count"},
			"figures":   {float64(len(f.ids)), "count"},
			"csv_bytes": {float64(len(f.csv)), "bytes"},
		},
		samples: map[string][]float64{"compute_ms": untraced.cold, "cached_ms": untraced.warm},
	}
	if b.traced {
		tr, agg := newTracer(), &layerAgg{}
		traced := f.phase(ctx, tr, agg)
		m := layerMetrics(tr, agg)
		st := f.ref.Stats()
		var runTotal, coldTotal float64
		for _, r := range traced.run {
			runTotal += r
		}
		for _, c := range traced.cold {
			coldTotal += c
		}
		m["figures.points"] = float64(f.points)
		m["figures.unique_points"] = float64(traced.unique)
		m["figures.dedup_ratio"] = 1 - ratio(float64(traced.unique), float64(f.points))
		m["runcache.open_us_per_entry"] = median(traced.openPerEntry)
		m["runcache.bytes_per_entry"] = ratio(float64(st.Bytes), float64(st.Entries))
		m["runcache.misses_per_compute"] = ratio(float64(traced.misses), float64(traced.unique))
		m["pool.run_ms_p50"] = median(traced.run)
		m["pool.run_ms_p99"] = percentile(traced.run, 99)
		m["pool.overhead_ms_p50"] = median(traced.overhead)
		m["pool.overhead_ms_p99"] = percentile(traced.overhead, 99)
		m["pool.busy_ratio"] = runTotal / (figuresParallel * coldTotal)
		m["benchmark.trace_overhead_pct"] = 100 * (median(traced.cold)/median(untraced.cold) - 1)
		oc.perLayer, oc.tr = m, tr
	}
	b.digest("figures.csv", sha(f.csv))
	return oc, nil
}

// regenerate runs the figure set through the production entry point.
func (f *figuresRun) regenerate(ctx context.Context, store *runcache.Store) ([]*experiments.FigureResult, error) {
	opt := figures.Options{Cache: store, Parallel: figuresParallel}
	if f.b.size.figureIDs == nil {
		return figures.AllFigures(ctx, f.scale, opt)
	}
	return figures.RunJobs(ctx, f.b.size.figureIDs, f.scale, opt)
}

// figureCSV concatenates the figures' CSVs, each under a "# <id>" line.
func figureCSV(figs []*experiments.FigureResult) ([]byte, error) {
	var buf bytes.Buffer
	for _, fig := range figs {
		fmt.Fprintf(&buf, "# %s\n", fig.ID)
		if err := experiments.WriteSeriesCSV(&buf, fig.Series); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// compile lists the expanded point documents of the figure set, with the
// names stripped the way the figure pipeline strips them before keying.
func (f *figuresRun) compile(tr *tracer, parent, req int) ([]scenario.Config, error) {
	var pts []scenario.Config
	for _, id := range f.ids {
		sid := tr.begin("figures.Documents", parent, req)
		docs, err := figures.Documents(id, f.scale)
		tr.end(sid)
		if err != nil {
			return nil, err
		}
		for _, d := range docs {
			sid := tr.begin("scenario.Expand", parent, req)
			expanded, err := d.Expand()
			tr.end(sid)
			if err != nil {
				return nil, err
			}
			for _, p := range expanded {
				p.Name = ""
				pts = append(pts, p)
			}
		}
	}
	return pts, nil
}

// setup is the median of setupReps × (compile the figure documents + reopen
// the filled cache): what every regeneration run pays before its first
// point.
func (f *figuresRun) setup() (float64, error) {
	var xs []float64
	for i := 0; i < f.b.size.setupReps; i++ {
		start := time.Now()
		if _, err := f.compile(nil, 0, 0); err != nil {
			return 0, err
		}
		if _, err := runcache.Open(f.refDir, 0); err != nil {
			return 0, err
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// phase runs cycles of one cold regeneration into a fresh cache followed by
// the warm ones, for the phase's seconds. Untraced cycles call
// figures.AllFigures; traced cycles walk the same points at the layer seams
// and compare every point with the reference cache's entry.
func (f *figuresRun) phase(ctx context.Context, tr *tracer, agg *layerAgg) figuresPhase {
	var p figuresPhase
	start := time.Now()
	var previous time.Duration
	for i := 0; another(start, f.b.phaseSeconds(), i, previous); i++ {
		f.b.calibrateIfDue()
		iteration := time.Now()
		dir := filepath.Join(f.b.work, fmt.Sprintf("cycle%d", i))
		store, err := runcache.Open(dir, 0)
		if err != nil {
			f.b.check(false, "open cycle cache: %v", err)
			continue
		}
		if tr == nil {
			f.cycle(ctx, store, &p)
		} else {
			f.tracedCycle(ctx, tr, agg, store, dir, &p, i == 0)
		}
		if err := os.RemoveAll(dir); err != nil {
			f.b.check(false, "remove cycle cache: %v", err)
		}
		previous = time.Since(iteration)
	}
	return p
}

func (f *figuresRun) cycle(ctx context.Context, store *runcache.Store, p *figuresPhase) {
	b := f.b
	for k := 0; k <= b.size.figuresWarm; k++ {
		if k <= 1 {
			runtime.GC() // before the cold and the first warm regeneration, as attack does
		}
		b.attempt()
		misses := store.Stats().Misses
		start := time.Now()
		figs, err := f.regenerate(ctx, store)
		d := ms(time.Since(start))
		if err != nil {
			b.failf("regenerate: %v", err)
			return
		}
		if k == 0 {
			p.cold = append(p.cold, d)
		} else {
			p.warm = append(p.warm, d)
			if n := store.Stats().Misses - misses; n != 0 {
				b.failf("warm regeneration missed the cache %d times", n)
			}
		}
		csv, err := figureCSV(figs)
		if err != nil {
			b.failf("figure CSV: %v", err)
			continue
		}
		if !bytes.Equal(csv, f.csv) {
			b.failf("regeneration %d: figure CSVs %s differ from the reference %s", k, sha(csv), sha(f.csv))
		}
	}
}

// tracedCycle walks Documents → Expand → Load → Key → Get → compute → Put on
// the figure pipeline's 2-goroutine pool, computing each distinct key once as
// the cache's singleflight does, then replays every point warm (Key → Get).
func (f *figuresRun) tracedCycle(ctx context.Context, tr *tracer, agg *layerAgg, store *runcache.Store, dir string, p *figuresPhase, countIt bool) {
	b := f.b
	f.req++
	req := f.req
	runtime.GC()
	b.attempt()
	start := time.Now()
	root := tr.begin("benchmark.compute", 0, req)
	pts, err := f.compile(tr, root, req)
	if err != nil {
		tr.end(root)
		b.failf("compile: %v", err)
		return
	}
	keys := make([]string, len(pts))
	for i, pt := range pts {
		keys[i] = f.keyRoundTrip(tr, pt, root, req)
	}
	// The first point of each key computes; the rest read the entry back,
	// as the cache's singleflight would serve them.
	first := map[string]int{}
	var unique []int
	for i, k := range keys {
		if _, ok := first[k]; k != "" && !ok {
			first[k] = i
			unique = append(unique, i)
		}
	}
	got := make([]map[string][]byte, len(pts))
	var mu sync.Mutex
	err = experiments.RunTasksCtx(ctx, figuresParallel, len(unique), func(u int) error {
		i := unique[u]
		pointStart := time.Now()
		pid := tr.begin("figures.point", root, req)
		defer tr.end(pid)
		if _, ok := getTimed(tr, store, keys[i], pid, req); ok {
			return fmt.Errorf("fresh cache already holds point %d", i)
		}
		runStart := time.Now()
		files, rc, err := computeTraced(ctx, tr, pid, req, pts[i])
		run := time.Since(runStart)
		if err != nil {
			return err
		}
		agg.add(rc, countIt)
		if err := putTimed(tr, store, keys[i], "figure-point", files, pid, req); err != nil {
			return err
		}
		mu.Lock()
		p.run = append(p.run, ms(run))
		p.overhead = append(p.overhead, ms(time.Since(pointStart)-run))
		mu.Unlock()
		got[i] = files
		return nil
	})
	if err != nil {
		b.failf("traced cold walk: %v", err)
	}
	for i, k := range keys {
		if k != "" && first[k] != i {
			got[i], _ = getTimed(tr, store, k, root, req)
		}
	}
	tr.end(root)
	p.cold = append(p.cold, ms(time.Since(start)))
	p.unique, p.misses = len(unique), int(store.Stats().Misses)
	f.compareWithRef(keys, got)

	runtime.GC()
	for w := 0; w < b.size.figuresWarm; w++ {
		f.req++
		req := f.req
		b.attempt()
		start := time.Now()
		root := tr.begin("benchmark.cached", 0, req)
		for i, pt := range pts {
			id := tr.begin("scenario.Key", root, req)
			k, err := scenario.Key(pt)
			tr.end(id)
			if err != nil {
				k = ""
			}
			keys[i] = k
			got[i], _ = getTimed(tr, store, k, root, req)
		}
		tr.end(root)
		p.warm = append(p.warm, ms(time.Since(start)))
		f.compareWithRef(keys, got)
	}

	perEntry, err := openTimed(tr, dir, 0, req)
	if err != nil {
		b.failf("reopen: %v", err)
		return
	}
	p.openPerEntry = append(p.openPerEntry, perEntry)
}

// keyRoundTrip keys one point the way a client submitting it would: the
// document is encoded as JSON and loaded back, and the reloaded key must
// equal the in-memory one.
func (f *figuresRun) keyRoundTrip(tr *tracer, pt scenario.Config, parent, req int) string {
	b := f.b
	raw, err := json.Marshal(pt)
	if err != nil {
		b.check(false, "encode point: %v", err)
		return ""
	}
	id := tr.begin("scenario.Load", parent, req)
	loaded, err := scenario.Load(bytes.NewReader(raw))
	tr.end(id)
	if err != nil {
		b.check(false, "reload point: %v", err)
		return ""
	}
	id = tr.begin("scenario.Key", parent, req)
	key, err := scenario.Key(loaded)
	tr.end(id)
	want, err2 := scenario.Key(pt)
	b.check(err == nil && err2 == nil && key == want, "point key changes across a JSON round trip: %s vs %s (%v, %v)", key, want, err, err2)
	return key
}

// compareWithRef checks every point's artifacts against the reference cache
// entry the production pipeline wrote for the same key.
func (f *figuresRun) compareWithRef(keys []string, got []map[string][]byte) {
	for i, key := range keys {
		want, ok := f.ref.Get(key)
		f.b.check(ok && got[i] != nil && sameFiles(got[i], want),
			"point %d (%s): artifacts differ from the production pipeline's cache entry (reference found=%v)", i, key, ok)
	}
}
