package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
	"pulsedos/internal/serve"
)

const (
	serveWorkers = 2
	serveClients = 2
	// serveMissShare is the share of requests that submit a document never
	// seen before; the rest resubmit one that already completed.
	serveMissShare = 0.2
	// servePinDocs is how many of the first miss documents the pinned
	// (key, digest) set covers: every full-size run completes them.
	servePinDocs = 64
	// serveRecompute is how many of the first miss documents are recomputed
	// directly after each phase and compared with what the server stored.
	serveRecompute = 4
)

// serveRun is one serve-mix invocation: an in-process pdos-serve on
// 127.0.0.1, driven by closed-loop clients that POST /runs?wait=1. Miss
// documents are the non-sweep scenarios/*.json with fresh seeds and one
// worker; hit requests resubmit a completed one.
type serveRun struct {
	b         *bench
	templates []scenario.Config

	mu   sync.Mutex
	docs []serveDoc // miss documents in stream order, shared by both phases
}

type serveDoc struct {
	body   []byte
	key    string
	digest string // SHA-256 of the compacted result.json, from the first response
}

// servePhase is one measured phase against its own cache directory.
type servePhase struct {
	s   *serveRun
	tr  *tracer
	dir string

	// gate is held for reading around every request and for writing by a
	// restart, which so waits for in-flight requests and holds new ones.
	gate   sync.RWMutex
	srv    *serve.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	tp     *http.Transport

	start  time.Time
	paused time.Duration // restart time, excluded from the measured window

	mu         sync.Mutex
	rng        *rand.Rand
	issued     int
	nextMiss   int
	completed  []int // miss documents whose compute finished: hit targets
	restarting bool
	restarted  bool

	hits, misses       []float64 // ms, client latency
	runs, overheads    []float64 // ms per miss: server run time, the rest of the latency
	joins              int
	setups             []float64 // s
	openPerEntry       []float64 // µs
	computesAtOpen     int       // completed computes when the current store opened
	statsMissesPerComp float64
	wall               time.Duration
}

func runServe(b *bench) (outcome, error) {
	b.res.Env = environment(serveWorkers, serveClients)
	s := &serveRun{b: b}
	if err := s.loadTemplates(); err != nil {
		return outcome{}, err
	}
	ctx := context.Background()
	untraced, err := s.phase(ctx, nil, nil, "serve-untraced")
	if err != nil {
		return outcome{}, err
	}
	requests := len(untraced.hits) + len(untraced.misses) + untraced.joins
	oc := outcome{
		endToEnd: map[string]float64{
			"setup_s":    median(untraced.setups),
			"compute_ms": median(untraced.misses),
			"cached_ms":  median(untraced.hits),
			"docs_per_s": float64(requests) / untraced.wall.Seconds(),
		},
		detail: map[string]metric{
			"hit_p99_ms":                {percentile(untraced.hits, 99), "ms"},
			"miss_p99_ms":               {percentile(untraced.misses, 99), "ms"},
			"requests":                  {float64(requests), "count"},
			"hits":                      {float64(len(untraced.hits)), "count"},
			"misses":                    {float64(len(untraced.misses)), "count"},
			"dedup_joins":               {float64(untraced.joins), "count"},
			"status_misses_per_compute": {untraced.statsMissesPerComp, "ratio"},
		},
	}
	if b.traced {
		tr, agg := newTracer(), &layerAgg{}
		traced, err := s.phase(ctx, tr, agg, "serve-traced")
		if err != nil {
			return outcome{}, err
		}
		m := layerMetrics(tr, agg)
		var runTotal float64
		for _, r := range traced.runs {
			runTotal += r
		}
		tracedRequests := len(traced.hits) + len(traced.misses) + traced.joins
		m["serve.hit_ratio"] = ratio(float64(len(traced.hits)), float64(tracedRequests))
		m["serve.dedup_joins"] = float64(traced.joins)
		m["runcache.open_us_per_entry"] = median(traced.openPerEntry)
		m["runcache.misses_per_compute"] = traced.statsMissesPerComp
		m["pool.run_ms_p50"] = median(traced.runs)
		m["pool.run_ms_p99"] = percentile(traced.runs, 99)
		m["pool.overhead_ms_p50"] = median(traced.overheads)
		m["pool.overhead_ms_p99"] = percentile(traced.overheads, 99)
		m["pool.busy_ratio"] = runTotal / (serveWorkers * ms(traced.wall))
		m["benchmark.trace_overhead_pct"] = 100 * (median(traced.misses)/median(untraced.misses) - 1)
		st, err := runcache.Open(filepath.Join(b.work, "serve-traced"), 0)
		if err != nil {
			return outcome{}, err
		}
		stats := st.Stats()
		m["runcache.bytes_per_entry"] = ratio(float64(stats.Bytes), float64(stats.Entries))
		oc.perLayer, oc.tr = m, tr
	}
	s.pin()
	return oc, nil
}

// loadTemplates reads the non-sweep scenario documents shipped in
// scenarios/, in file-name order.
func (s *serveRun) loadTemplates() error {
	paths, err := filepath.Glob(filepath.Join(s.b.root, "scenarios", "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		cfg, err := scenario.Load(bytes.NewReader(raw))
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		if !cfg.Sweeps() {
			s.templates = append(s.templates, cfg)
		}
	}
	if len(s.templates) == 0 {
		return fmt.Errorf("no runnable scenario documents in %s", filepath.Join(s.b.root, "scenarios"))
	}
	return nil
}

// doc returns miss document j: a template chosen from the seed and j, with a
// seed of its own and the serial engine.
func (s *serveRun) doc(j int) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.docs) <= j {
		n := uint64(len(s.docs))
		cfg := s.templates[mix(s.b.docSeed(), n)%uint64(len(s.templates))]
		cfg.Seed = s.b.docSeed()<<20 + n + 1
		cfg.Topology.Workers = 1
		raw, err := json.Marshal(cfg)
		if err != nil {
			return nil, err
		}
		s.docs = append(s.docs, serveDoc{body: raw})
	}
	return s.docs[j].body, nil
}

// mix is SplitMix64 over (a, b): a stable hash for picking templates.
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b + 0x632be59bd9b4e019
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// record stores the first response's key and digest for document j and
// checks every later response against them — across hits, restarts and the
// traced phase.
func (s *serveRun) record(j int, key, digest string) {
	s.mu.Lock()
	d := &s.docs[j]
	first := d.digest == ""
	if first {
		d.key, d.digest = key, digest
	}
	wantKey, wantDigest := d.key, d.digest
	s.mu.Unlock()
	if !first {
		s.b.check(key == wantKey && digest == wantDigest,
			"document %d: response %s/%s differs from the first response %s/%s", j, key, digest, wantKey, wantDigest)
	}
}

// pin records the digest of the sorted (key, result digest) pairs of the
// first servePinDocs miss documents.
func (s *serveRun) pin() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.docs) < servePinDocs {
		return
	}
	pairs := make([]string, 0, servePinDocs)
	for _, d := range s.docs[:servePinDocs] {
		if d.digest == "" {
			return
		}
		pairs = append(pairs, d.key+" "+d.digest+"\n")
	}
	sort.Strings(pairs)
	s.b.digest("serve.pairs", sha([]byte(strings.Join(pairs, ""))))
}

func (s *serveRun) phase(ctx context.Context, tr *tracer, agg *layerAgg, name string) (*servePhase, error) {
	ph := &servePhase{
		s:   s,
		tr:  tr,
		dir: filepath.Join(s.b.work, name),
		rng: rand.New(rand.NewSource(s.b.seed)),
	}
	ph.tp = &http.Transport{MaxIdleConnsPerHost: serveClients, DisableCompression: true}
	ph.client = &http.Client{Transport: ph.tp, Timeout: 2 * time.Minute}
	defer ph.tp.CloseIdleConnections()
	if err := ph.startServer(); err != nil {
		return nil, err
	}
	defer ph.stopServer()

	ph.start = time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.clientLoop()
		}()
	}
	stop := make(chan struct{})
	calibrated := make(chan struct{})
	go func() {
		defer close(calibrated)
		ph.calibrateLoop(stop)
	}()
	wg.Wait()
	close(stop)
	<-calibrated
	ph.wall = time.Since(ph.start) - ph.paused
	if !ph.restarted {
		ph.restart() // a run too short to reach the restart point restarts at its end
	}
	if ph.srv == nil {
		return nil, errors.New("the server did not come back after a restart")
	}
	ph.mu.Lock()
	computes := len(ph.misses) - ph.computesAtOpen
	ph.mu.Unlock()
	ph.statsMissesPerComp = ratio(float64(ph.srv.Cache().Stats().Misses), float64(computes))
	if err := ph.verify(ctx, agg); err != nil {
		return nil, err
	}
	return ph, nil
}

func (ph *servePhase) startServer() error {
	srv, err := serve.New(serve.Options{CacheDir: ph.dir, Workers: serveWorkers})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	ph.srv, ph.base = srv, "http://"+ln.Addr().String()
	ph.hs = &http.Server{Handler: srv.Handler()}
	ph.served = make(chan struct{})
	go func(hs *http.Server, done chan struct{}) {
		defer close(done)
		hs.Serve(ln) // returns http.ErrServerClosed once stopServer closes it
	}(ph.hs, ph.served)
	resp, err := ph.client.Get(ph.base + "/status")
	if err != nil {
		return fmt.Errorf("status probe: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status probe: HTTP %d", resp.StatusCode)
	}
	return nil
}

// stopServer closes the listener and connections, waits for the HTTP
// server's goroutine, then stops the worker pool.
func (ph *servePhase) stopServer() {
	if ph.srv == nil {
		return
	}
	ph.hs.Close()
	<-ph.served
	ph.srv.Close()
	ph.srv = nil
	ph.tp.CloseIdleConnections()
}

// more reports whether the clients should issue another request.
func (ph *servePhase) more() bool {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	if n := ph.s.b.size.serveRequests; n > 0 {
		return ph.issued < n
	}
	return time.Since(ph.start)-ph.paused < time.Duration(ph.s.b.phaseSeconds()*float64(time.Second))
}

// next draws the next request: a new miss document, or a completed one.
// req numbers the request for its spans.
func (ph *servePhase) next() (req, j int, miss bool) {
	ph.mu.Lock()
	defer ph.mu.Unlock()
	ph.issued++
	if len(ph.completed) == 0 || ph.rng.Float64() < serveMissShare {
		ph.nextMiss++
		return ph.issued, ph.nextMiss - 1, true
	}
	return ph.issued, ph.completed[ph.rng.Intn(len(ph.completed))], false
}

func (ph *servePhase) clientLoop() {
	for {
		ph.gate.RLock()
		if !ph.more() {
			ph.gate.RUnlock()
			return
		}
		req, j, miss := ph.next()
		restart := ph.request(req, j, miss)
		ph.gate.RUnlock()
		if restart {
			ph.restart()
		}
	}
}

// request submits document j and classifies the response from its
// JobStatus: a fast-path hit is cached with no run time, a join is cached
// with the run time of the compute it joined, anything else computed.
// It reports whether this response reached the restart point.
func (ph *servePhase) request(req, j int, miss bool) bool {
	b := ph.s.b
	b.attempt()
	body, err := ph.s.doc(j)
	if err != nil {
		b.failf("document %d: %v", j, err)
		return false
	}
	start := time.Now()
	rid := ph.tr.begin("http.POST /runs", 0, req)
	st, code, err := ph.post(body)
	end := time.Now()
	ph.tr.end(rid)
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) || st.State != serve.StateDone {
		b.failf("document %d: HTTP %d, state %q, error %q: %v", j, code, st.State, st.Error, err)
		return false
	}
	result, err := compactJSON(st.Result)
	if err != nil {
		b.failf("document %d: result.json: %v", j, err)
		return false
	}
	ph.s.record(j, st.Key, sha(result))
	lat := ms(end.Sub(start))
	wall := time.Duration(st.WallSeconds * float64(time.Second))

	ph.mu.Lock()
	defer ph.mu.Unlock()
	switch {
	case st.Cached && st.WallSeconds == 0:
		ph.hits = append(ph.hits, lat)
	case st.Cached:
		ph.joins++
	default:
		ph.misses = append(ph.misses, lat)
		ph.runs = append(ph.runs, ms(wall))
		ph.overheads = append(ph.overheads, lat-ms(wall))
		ph.tr.add("serve.run", rid, req, end.Add(-wall), end)
	}
	if !miss {
		return false
	}
	ph.completed = append(ph.completed, j)
	if ph.restarted || ph.restarting || len(ph.completed) < b.size.serveRestart {
		return false
	}
	ph.restarting = true
	return true
}

func (ph *servePhase) post(body []byte) (serve.JobStatus, int, error) {
	var st serve.JobStatus
	resp, err := ph.client.Post(ph.base+"/runs?wait=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if err := json.Unmarshal(raw, &st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("decode %q: %w", raw, err)
	}
	return st, resp.StatusCode, nil
}

// calibrateLoop takes a reference sample every calibrateEvery until stop is
// closed, holding the clients back meanwhile and leaving the pause out of
// the measured window.
func (ph *servePhase) calibrateLoop(stop <-chan struct{}) {
	tick := time.NewTicker(calibrateEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			ph.gate.Lock()
			t0 := time.Now()
			ph.s.b.cal.sample()
			ph.paused += time.Since(t0)
			ph.gate.Unlock()
		}
	}
}

// restart closes the server and reopens it on the same cache directory
// setupReps times, timing serve.New + listener + first /status 200 each
// time. Clients wait meanwhile and the pause is left out of the measured
// window.
func (ph *servePhase) restart() {
	b := ph.s.b
	ph.gate.Lock()
	defer ph.gate.Unlock()
	t0 := time.Now()
	for r := 0; r < b.size.setupReps; r++ {
		ph.stopServer()
		if ph.tr != nil {
			perEntry, err := openTimed(ph.tr, ph.dir, 0, 0)
			b.check(err == nil, "reopen: %v", err)
			if err == nil {
				ph.openPerEntry = append(ph.openPerEntry, perEntry)
			}
		}
		start := time.Now()
		id := ph.tr.begin("serve.New", 0, 0)
		err := ph.startServer()
		ph.tr.end(id)
		b.attempt()
		if err != nil {
			b.failf("restart: %v", err)
			break
		}
		ph.setups = append(ph.setups, time.Since(start).Seconds())
	}
	ph.mu.Lock()
	ph.restarted, ph.restarting = true, false
	ph.computesAtOpen = len(ph.misses)
	ph.mu.Unlock()
	ph.paused += time.Since(t0)
}

// verify recomputes the first miss documents directly — decomposed and
// traced in the traced phase — and compares every artifact byte for byte
// with what the server stored; in the traced phase it also times Load, Key
// and Get against the live store and Put into a scratch store.
func (ph *servePhase) verify(ctx context.Context, agg *layerAgg) error {
	b, tr := ph.s.b, ph.tr
	store := ph.srv.Cache()
	scratch, err := runcache.Open(ph.dir+"-scratch", 0)
	if err != nil {
		return err
	}
	ph.mu.Lock()
	n := min(serveRecompute, len(ph.completed))
	completed := append([]int(nil), ph.completed...)
	ph.mu.Unlock()
	sort.Ints(completed)
	for j := 0; j < n; j++ {
		ph.s.mu.Lock()
		d := ph.s.docs[completed[j]]
		ph.s.mu.Unlock()
		b.attempt()
		cfg, err := scenario.Load(bytes.NewReader(d.body))
		if err != nil {
			b.failf("recompute %d: %v", j, err)
			continue
		}
		var files map[string][]byte
		if tr == nil {
			files, err = scenario.ComputeArtifacts(ctx, cfg, nil)
		} else {
			var rc runCounters
			files, rc, err = computeTraced(ctx, tr, 0, 0, cfg)
			agg.add(rc, true)
			if err == nil {
				err = putTimed(tr, scratch, d.key, cfg.Name, files, 0, 0)
			}
		}
		if err != nil {
			b.failf("recompute %d: %v", j, err)
			continue
		}
		stored, ok := store.Get(d.key)
		if !ok || !sameFiles(files, stored) {
			b.failf("document %d: the server's artifacts (found=%v) differ from a direct recompute", completed[j], ok)
		}
	}
	if tr == nil {
		return nil
	}
	for _, j := range completed {
		ph.s.mu.Lock()
		d := ph.s.docs[j]
		ph.s.mu.Unlock()
		id := tr.begin("scenario.Load", 0, 0)
		cfg, err := scenario.Load(bytes.NewReader(d.body))
		tr.end(id)
		if err != nil {
			b.check(false, "load %d: %v", j, err)
			continue
		}
		id = tr.begin("scenario.Key", 0, 0)
		key, err := scenario.Key(cfg)
		tr.end(id)
		_, ok := getTimed(tr, store, key, 0, 0)
		b.check(err == nil && ok && key == d.key, "document %d: direct key/get %s hit=%v (%v)", j, key, ok, err)
	}
	return nil
}
