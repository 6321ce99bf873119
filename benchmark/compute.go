package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
	"pulsedos/internal/topo"
)

// runCounters is what one decomposed compute read from the environment's
// public accessors, plus the wall time it measured around RunCtx.
type runCounters struct {
	runs, golden                       int
	kernelEvents, modelEvents, skipped uint64
	windows                            uint64
	windowVirtualSec                   float64 // virtual time covered by engine windows
	arrivals, drops                    uint64
	segments, retransmits              uint64
	timeouts, fastRecoveries           uint64
	pulses                             int
	attackPkts                         uint64

	runctx                   time.Duration
	warmup, attack           time.Duration // RunCtx wall split at the warmup boundary
	warmupVirt, attackVirt   float64       // virtual seconds in each part
	mallocs                  uint64        // process-wide Mallocs during RunCtx
	heapAfterBuild, heapRuns float64       // Σ live-heap MiB after Build, and how many
}

func (c *runCounters) add(o runCounters) {
	c.runs += o.runs
	c.golden += o.golden
	c.kernelEvents += o.kernelEvents
	c.modelEvents += o.modelEvents
	c.skipped += o.skipped
	c.windows += o.windows
	c.windowVirtualSec += o.windowVirtualSec
	c.arrivals += o.arrivals
	c.drops += o.drops
	c.segments += o.segments
	c.retransmits += o.retransmits
	c.timeouts += o.timeouts
	c.fastRecoveries += o.fastRecoveries
	c.pulses += o.pulses
	c.attackPkts += o.attackPkts
	c.runctx += o.runctx
	c.warmup += o.warmup
	c.attack += o.attack
	c.warmupVirt += o.warmupVirt
	c.attackVirt += o.attackVirt
	c.mallocs += o.mallocs
	c.heapAfterBuild += o.heapAfterBuild
	c.heapRuns += o.heapRuns
}

// layerAgg collects runCounters from concurrent computes. Counts come from
// the workload's first unit only, so they repeat exactly for a seed; timings
// come from every traced compute.
type layerAgg struct {
	mu     sync.Mutex
	counts runCounters
	timing runCounters
}

func (a *layerAgg) add(c runCounters, countIt bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.timing.add(c)
	if countIt {
		a.counts.add(c)
	}
}

// computeTraced is scenario.ComputeArtifacts taken apart at its public
// seams — Config.Build, Config.Train, experiments.RunCtx, EncodeResult — so
// each layer gets a span under one "scenario.ComputeArtifacts" span and the
// environment's counters can be read before Close. Workloads compare its
// bytes with the undecomposed path, so the decomposition is checked, not
// trusted. The mice workload branch bypasses RunCtx and runs whole.
func computeTraced(ctx context.Context, tr *tracer, parent, req int, cfg scenario.Config) (map[string][]byte, runCounters, error) {
	id := tr.begin("scenario.ComputeArtifacts", parent, req)
	defer tr.end(id)
	if cfg.Workload != nil {
		files, err := scenario.ComputeArtifacts(ctx, cfg, nil)
		return files, runCounters{}, err
	}
	return decomposed(ctx, tr, id, req, cfg)
}

func decomposed(ctx context.Context, tr *tracer, parent, req int, cfg scenario.Config) (map[string][]byte, runCounters, error) {
	var rc runCounters
	if err := cfg.Validate(); err != nil {
		return nil, rc, err
	}
	if cfg.Sweeps() {
		return nil, rc, errors.New("benchmark: sweep document reached compute unexpanded")
	}

	id := tr.begin("topo.Build", parent, req)
	env, err := cfg.Build()
	tr.end(id)
	if err != nil {
		return nil, rc, err
	}
	if cl, ok := env.(interface{ Close() }); ok {
		defer cl.Close()
	}
	rc.heapAfterBuild, rc.heapRuns = heapMiB(), 1

	id = tr.begin("attack.Train", parent, req)
	train, err := cfg.Train(env)
	tr.end(id)
	if err != nil {
		return nil, rc, err
	}

	opt := runOptions(cfg)
	opt.Train = train
	warmFrac := cfg.WarmupSec / (cfg.WarmupSec + cfg.MeasureSec)
	total := cfg.WarmupSec + cfg.MeasureSec
	var lastFrac float64
	var last time.Time // set just before RunCtx starts
	opt.Progress = func(frac float64) {
		now := time.Now()
		wall, virt := now.Sub(last), (frac-lastFrac)*total
		if (lastFrac+frac)/2 < warmFrac {
			rc.warmup += wall
			rc.warmupVirt += virt
		} else {
			rc.attack += wall
			rc.attackVirt += virt
		}
		lastFrac, last = frac, now
	}
	m0 := mallocs()
	id = tr.begin("experiments.RunCtx", parent, req)
	start := time.Now()
	last = start
	res, err := experiments.RunCtx(ctx, env, opt)
	rc.runctx = time.Since(start)
	tr.end(id)
	rc.mallocs = mallocs() - m0
	if err != nil {
		return nil, rc, err
	}
	if err := readCounters(env, &rc); err != nil {
		return nil, rc, err
	}
	rc.pulses = res.AttackStats.PulsesSent
	rc.attackPkts = res.AttackStats.PacketsSent

	id = tr.begin("scenario.EncodeResult", parent, req)
	files, err := scenario.EncodeResult(cfg, res)
	tr.end(id)
	return files, rc, err
}

// getTimed is runcache.Store.Get recorded as "runcache.Get" on a hit and
// "runcache.GetMiss" on a miss, so hit latency is not mixed with probes.
func getTimed(tr *tracer, store *runcache.Store, key string, parent, req int) (map[string][]byte, bool) {
	start := time.Now()
	files, ok := store.Get(key)
	name := "runcache.Get"
	if !ok {
		name = "runcache.GetMiss"
	}
	tr.add(name, parent, req, start, time.Now())
	return files, ok
}

// putTimed is runcache.Store.Put under a "runcache.Put" span.
func putTimed(tr *tracer, store *runcache.Store, key, label string, files map[string][]byte, parent, req int) error {
	id := tr.begin("runcache.Put", parent, req)
	defer tr.end(id)
	return store.Put(key, label, experiments.EngineVersion, files)
}

// openTimed reopens a store directory under a "runcache.Open" span and
// returns the reopen time per entry in microseconds.
func openTimed(tr *tracer, dir string, parent, req int) (float64, error) {
	id := tr.begin("runcache.Open", parent, req)
	start := time.Now()
	st, err := runcache.Open(dir, 0)
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	n := st.Stats().Entries
	if n == 0 {
		return 0, fmt.Errorf("benchmark: reopened store %s is empty", dir)
	}
	return us(d) / float64(n), nil
}

// sameFiles reports whether two artifact sets hold identical bytes.
func sameFiles(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for name, data := range a {
		other, ok := b[name]
		if !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

// runOptions mirrors the RunOptions scenario.Config.RunContext derives from
// a document. The queue tap's 50 ms default is restated here; if it drifts,
// the byte-identity checks against the undecomposed path fail.
func runOptions(cfg scenario.Config) experiments.RunOptions {
	opt := experiments.RunOptions{
		Warmup:        time.Duration(cfg.WarmupSec * float64(time.Second)),
		Measure:       time.Duration(cfg.MeasureSec * float64(time.Second)),
		MeasureJitter: cfg.Jitter,
	}
	if cfg.RateBinMs > 0 {
		opt.RateBin = time.Duration(cfg.RateBinMs * float64(time.Millisecond))
	}
	if m := cfg.Measure; m != nil {
		opt.CaptureSRTT = m.HasTap("srtt")
		if m.HasTap("cwnd") {
			opt.CaptureCwnd = true
			opt.CwndFlow = m.CwndFlow
		}
		if m.HasTap("queue") {
			bin := m.QueueBinMs
			if bin <= 0 {
				bin = 50
			}
			opt.QueueBin = time.Duration(bin * float64(time.Millisecond))
		}
	}
	return opt
}

// readCounters fills the sim, netem, tcp and attack counters from the
// environment after its run.
func readCounters(env experiments.Environment, rc *runCounters) error {
	te, ok := env.(*topo.Environment)
	if !ok {
		return fmt.Errorf("benchmark: environment is %T, want *topo.Environment", env)
	}
	rc.runs = 1
	if te.Bottle.GoldenPath() {
		rc.golden = 1
	}
	rc.kernelEvents = te.KernelEvents()
	rc.modelEvents = te.Processed()
	rc.skipped = te.SkippedEvents()
	if eng := te.Engine(); eng != nil {
		rc.windows = eng.Windows()
		rc.windowVirtualSec = eng.Now().Seconds()
	}
	st := te.BottleStats()
	rc.arrivals, rc.drops = st.Arrivals, st.Drops
	for _, s := range te.Senders {
		ss := s.Stats()
		rc.segments += ss.SegmentsSent
		rc.retransmits += ss.Retransmits
		rc.timeouts += ss.Timeouts
		rc.fastRecoveries += ss.FastRetransmits
	}
	return nil
}

// layerMetrics derives the per-layer metrics every workload shares from its
// traced spans and counters; workloads add their own (pool, figures, serve,
// runcache open) on top.
func layerMetrics(tr *tracer, agg *layerAgg) map[string]float64 {
	c, t := agg.counts, agg.timing
	m := map[string]float64{
		"scenario.load_us":          1000 * median(tr.durations("scenario.Load")),
		"scenario.key_us":           1000 * median(tr.durations("scenario.Key")),
		"scenario.encode_ms":        median(tr.durations("scenario.EncodeResult")),
		"topo.build_ms":             median(tr.durations("topo.Build")),
		"topo.heap_mib_after_build": ratio(t.heapAfterBuild, t.heapRuns),
		"experiments.runctx_ms":     median(tr.durations("experiments.RunCtx")),

		"experiments.ns_per_pkt":         ratio(float64(t.runctx), float64(t.arrivals)),
		"experiments.allocs_per_pkt":     ratio(float64(t.mallocs), float64(t.arrivals)),
		"experiments.warmup_ms_per_vsec": ratio(ms(t.warmup), t.warmupVirt),
		"experiments.attack_ms_per_vsec": ratio(ms(t.attack), t.attackVirt),
		"sim.ns_per_event":               ratio(float64(t.runctx), float64(t.kernelEvents)),

		"sim.kernel_events":     float64(c.kernelEvents),
		"sim.model_events":      float64(c.modelEvents),
		"sim.skipped_events":    float64(c.skipped),
		"sim.rto_ticks":         float64(c.kernelEvents+c.skipped) - float64(c.modelEvents),
		"sim.events_per_pkt":    ratio(float64(c.kernelEvents), float64(c.arrivals)),
		"sim.engine_windows":    float64(c.windows),
		"sim.events_per_window": ratio(float64(c.kernelEvents), float64(c.windows)),
		"sim.window_vus":        ratio(1e6*c.windowVirtualSec, float64(c.windows)),

		"netem.bottleneck_golden": ratio(float64(c.golden), float64(c.runs)),
		"netem.bottleneck_pkts":   float64(c.arrivals),
		"netem.drop_ratio":        ratio(float64(c.drops), float64(c.arrivals)),
		"tcp.segments":            float64(c.segments),
		"tcp.retx_ratio":          ratio(float64(c.retransmits), float64(c.segments)),
		"tcp.timeouts":            float64(c.timeouts),
		"tcp.fast_recoveries":     float64(c.fastRecoveries),
		"attack.pulses":           float64(c.pulses),
		"attack.packets":          float64(c.attackPkts),
		"attack.pkt_share":        ratio(float64(c.attackPkts), float64(c.arrivals)),

		"runcache.get_hit_us_p50": 1000 * median(tr.durations("runcache.Get")),
		"runcache.get_hit_us_p99": 1000 * percentile(tr.durations("runcache.Get"), 99),
		"runcache.put_ms_p50":     median(tr.durations("runcache.Put")),

		"figures.points":        0,
		"figures.unique_points": 0,
		"figures.dedup_ratio":   0,
		"serve.hit_ratio":       0,
		"serve.dedup_joins":     0,
	}
	self := tr.selfByLayer()
	var all time.Duration
	for _, d := range self {
		all += d
	}
	for _, l := range selfLayers {
		m[l+".self_pct"] = 100 * ratio(float64(self[l]), float64(all))
	}
	return m
}
