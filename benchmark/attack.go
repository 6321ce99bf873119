package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
)

// attackDoc is the paper's attack at the scale the ROADMAP targets: routers
// S→R over a RED trunk of 1 Mbps per flow (10 Gbps at 10,000 flows) with
// 5 ms delay and a 10-packet-per-flow queue; TCP flows with 50 Mbps access
// and 20–460 ms RTTs; an attacker at S with 4x the trunk's rate as access,
// sending aimd pulses of 2x the trunk rate for 75 ms at γ 0.5. The windows
// are short so that one measured run holds several attacked runs.
func attackDoc(flows, workers int, warmupSec, measureSec float64, seed uint64) []byte {
	trunk := float64(flows)
	return []byte(fmt.Sprintf(`{
  "name": "attack-10k",
  "topology": {"kind": "graph", "workers": %d, "graph": {
    "routers": ["S", "R"],
    "trunks": [{"name": "trunk", "from": 0, "to": 1, "rateMbps": %g, "delayMs": 5, "queuePackets": %d}],
    "groups": [{"flows": %d, "ingress": 0, "egress": 1, "accessRateMbps": 50, "rttMinMs": 20, "rttMaxMs": 460}],
    "attacks": [{"router": 0, "rateMbps": %g}],
    "sink": 1
  }},
  "attack": {"kind": "aimd", "rateMbps": %g, "extentMs": 75, "gamma": 0.5},
  "warmupSec": %g, "measureSec": %g, "seed": %d
}`, workers, trunk, 10*flows, flows, 4*trunk, 2*trunk, warmupSec, measureSec, seed))
}

// attackRun is one attack workload invocation: the compute operation runs
// the document (Load, Key, ComputeArtifacts, runcache Put) and each cached
// operation resubmits it (Load, Key, runcache Get).
type attackRun struct {
	b     *bench
	doc   []byte
	dir   string
	store *runcache.Store
	ref   map[string][]byte // the artifacts every run must reproduce
	req   int
}

type attackPhase struct {
	compute, cached []float64 // ms per operation
	run, overhead   []float64 // ms per compute: the document's run, and the rest of the operation
	openPerEntry    []float64 // µs
	wall            time.Duration
}

func runAttack(b *bench, workers int) (outcome, error) {
	b.res.Env = environment(workers, 1)
	if workers > 1 && runtime.GOMAXPROCS(0) < workers {
		b.note("compute_ms is not comparable: GOMAXPROCS %d is below the %d engine workers", runtime.GOMAXPROCS(0), workers)
	}
	sz := b.size
	ctx := context.Background()
	a := &attackRun{b: b, doc: attackDoc(sz.attackFlows, workers, sz.attackWarmupSec, sz.attackMeasureSec, b.docSeed())}
	a.dir = filepath.Join(b.work, "cache")
	var err error
	if a.store, err = runcache.Open(a.dir, 0); err != nil {
		return outcome{}, err
	}

	// The sharded run must reproduce the serial run byte for byte, so the
	// serial result is its reference; the serial workload's reference is its
	// own first run.
	if workers > 1 {
		cfg, err := scenario.Load(bytes.NewReader(attackDoc(sz.attackFlows, 1, sz.attackWarmupSec, sz.attackMeasureSec, b.docSeed())))
		if err != nil {
			return outcome{}, err
		}
		if a.ref, err = scenario.ComputeArtifacts(ctx, cfg, nil); err != nil {
			return outcome{}, fmt.Errorf("serial reference run: %w", err)
		}
	}

	setup, err := attackSetup(a.doc, sz.setupReps)
	if err != nil {
		return outcome{}, err
	}
	untraced := a.phase(ctx, nil, nil)
	oc := outcome{
		endToEnd: map[string]float64{
			"setup_s":    setup,
			"compute_ms": median(untraced.compute),
			"cached_ms":  median(untraced.cached),
			"docs_per_s": docsPerSecond(1, untraced.compute, untraced.cached),
		},
		detail: map[string]metric{
			"compute_ops": {float64(len(untraced.compute)), "count"},
			"cached_ops":  {float64(len(untraced.cached)), "count"},
		},
		samples: map[string][]float64{"compute_ms": untraced.compute, "cached_ms": untraced.cached},
	}
	if b.traced {
		tr, agg := newTracer(), &layerAgg{}
		traced := a.phase(ctx, tr, agg)
		m := layerMetrics(tr, agg)
		st := a.store.Stats()
		var runTotal float64
		for _, r := range traced.run {
			runTotal += r
		}
		m["runcache.open_us_per_entry"] = median(traced.openPerEntry)
		m["runcache.bytes_per_entry"] = ratio(float64(st.Bytes), float64(st.Entries))
		m["runcache.misses_per_compute"] = ratio(float64(st.Misses), float64(len(untraced.compute)+len(traced.compute)))
		m["pool.run_ms_p50"] = median(traced.run)
		m["pool.run_ms_p99"] = percentile(traced.run, 99)
		m["pool.overhead_ms_p50"] = median(traced.overhead)
		m["pool.overhead_ms_p99"] = percentile(traced.overhead, 99)
		m["pool.busy_ratio"] = runTotal / ms(traced.wall)
		m["benchmark.trace_overhead_pct"] = 100 * (median(traced.compute)/median(untraced.compute) - 1)
		oc.perLayer, oc.tr = m, tr
	}
	b.digest("attack.result.json", sha(a.ref[scenario.ArtifactResult]))
	return oc, nil
}

// attackSetup is the median of reps × (Load + Build + Close): what every run
// of the document pays before its first event.
func attackSetup(doc []byte, reps int) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		cfg, err := scenario.Load(bytes.NewReader(doc))
		if err != nil {
			return 0, err
		}
		env, err := cfg.Build()
		if err != nil {
			return 0, err
		}
		if cl, ok := env.(interface{ Close() }); ok {
			cl.Close()
		}
		xs = append(xs, time.Since(start).Seconds())
	}
	return median(xs), nil
}

// phase runs compute operations, each followed by the cached ones, for the
// phase's seconds. A nil tracer runs ComputeArtifacts whole; a tracer runs
// it decomposed and records spans and counters. A collection before each
// batch, outside the timed operations, keeps one run's 100 MB of garbage
// out of the next operation's time and out of the peak RSS.
func (a *attackRun) phase(ctx context.Context, tr *tracer, agg *layerAgg) attackPhase {
	var p attackPhase
	start := time.Now()
	var previous time.Duration
	for i := 0; another(start, a.b.phaseSeconds(), i, previous); i++ {
		a.b.calibrateIfDue()
		iteration := time.Now()
		runtime.GC()
		a.compute(ctx, tr, agg, &p, i == 0)
		runtime.GC()
		for k := 0; k < a.b.size.attackCached; k++ {
			a.cached(tr, &p)
		}
		previous = time.Since(iteration)
	}
	p.wall = time.Since(start)
	return p
}

func (a *attackRun) compute(ctx context.Context, tr *tracer, agg *layerAgg, p *attackPhase, first bool) {
	b := a.b
	a.req++
	req := a.req
	b.attempt()
	start := time.Now()
	root := tr.begin("benchmark.compute", 0, req)
	defer tr.end(root)
	id := tr.begin("scenario.Load", root, req)
	cfg, err := scenario.Load(bytes.NewReader(a.doc))
	tr.end(id)
	if err != nil {
		b.failf("load: %v", err)
		return
	}
	id = tr.begin("scenario.Key", root, req)
	key, err := scenario.Key(cfg)
	tr.end(id)
	if err != nil {
		b.failf("key: %v", err)
		return
	}
	runStart := time.Now()
	var files map[string][]byte
	if tr == nil {
		files, err = scenario.ComputeArtifacts(ctx, cfg, nil)
	} else {
		var rc runCounters
		files, rc, err = computeTraced(ctx, tr, root, req, cfg)
		agg.add(rc, first)
	}
	run := time.Since(runStart)
	if err != nil {
		b.failf("run: %v", err)
		return
	}
	if err := putTimed(tr, a.store, key, cfg.Name, files, root, req); err != nil {
		b.failf("put: %v", err)
		return
	}
	total := time.Since(start)
	p.compute = append(p.compute, ms(total))
	p.run = append(p.run, ms(run))
	p.overhead = append(p.overhead, ms(total-run))

	if a.ref == nil {
		a.ref = files
	} else if !sameFiles(files, a.ref) {
		b.failf("run %d: result.json %s differs from the reference %s", req,
			sha(files[scenario.ArtifactResult]), sha(a.ref[scenario.ArtifactResult]))
	}
	if tr != nil {
		perEntry, err := openTimed(tr, a.dir, 0, req)
		if err != nil {
			b.failf("reopen: %v", err)
			return
		}
		p.openPerEntry = append(p.openPerEntry, perEntry)
	}
}

func (a *attackRun) cached(tr *tracer, p *attackPhase) {
	b := a.b
	a.req++
	req := a.req
	b.attempt()
	start := time.Now()
	root := tr.begin("benchmark.cached", 0, req)
	id := tr.begin("scenario.Load", root, req)
	cfg, err := scenario.Load(bytes.NewReader(a.doc))
	tr.end(id)
	if err != nil {
		tr.end(root)
		b.failf("load: %v", err)
		return
	}
	id = tr.begin("scenario.Key", root, req)
	key, err := scenario.Key(cfg)
	tr.end(id)
	if err != nil {
		tr.end(root)
		b.failf("key: %v", err)
		return
	}
	files, ok := getTimed(tr, a.store, key, root, req)
	tr.end(root)
	p.cached = append(p.cached, ms(time.Since(start)))
	if !ok || !sameFiles(files, a.ref) {
		b.failf("cached resubmission %d: hit=%v, artifacts differ from the computed run", req, ok)
	}
}
