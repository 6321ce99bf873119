// Package serve is the memoized scenario-execution service behind
// pdos-serve. It accepts scenario documents over HTTP/JSON, schedules them
// on a bounded prioritized worker pool, and routes every execution through
// the content-addressed run cache (internal/runcache): a document whose
// canonical hash (scenario.Key) was run before on this engine version is
// answered from disk without touching the simulation kernel.
//
// Endpoints:
//
//	POST   /runs                      submit a scenario document (the request body)
//	                                  ?priority=N  higher drains first (default 0)
//	                                  ?wait=1      block until the run finishes
//	                                  ?stream=1    chunked JSON progress lines
//	POST   /runs/batch                submit a JSON array of scenario documents;
//	                                  each admits independently through the same
//	                                  pipeline (cache fast path, heap budget,
//	                                  queue bound) and the response is one
//	                                  BatchEntry per document, in order;
//	                                  ?priority and ?wait=1 apply to every entry
//	GET    /runs/{id}                 job status
//	GET    /runs/{id}/artifacts/{name} one artifact (result.json, rate.csv)
//	GET    /runs/{id}/events          chunked JSON progress lines until terminal
//	DELETE /runs/{id}                 cancel a queued or running job
//	GET    /status                    queue depth, budgets, cache hit/miss/eviction counters
//
// Admission control: submissions beyond MaxPending queued jobs are refused
// with 503; a scenario whose projected build footprint
// (experiments.ProjectedHeapBytes over its packet and fluid flow counts)
// exceeds MaxHeapBytes is refused with 422 before anything is built; a run
// exceeding MaxRunWall is aborted between timeline slices and reported
// failed.
//
// The package is registered with pdos-lint's determinism analyzer: the
// simulation work it dispatches stays deterministic (that is what makes
// caching sound), and the scheduling layer's own concurrency is annotated
// //pdos:nondeterministic-ok where it is inherently racy (worker pool,
// HTTP).
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"pulsedos/internal/experiments"
	"pulsedos/internal/perf/clock"
	"pulsedos/internal/runcache"
	"pulsedos/internal/scenario"
	"pulsedos/internal/topo"
)

// Options configures a Server. Zero values pick the documented defaults.
type Options struct {
	// CacheDir roots the content-addressed artifact store
	// (results/cache by convention).
	CacheDir string
	// CacheMaxBytes bounds the store's on-disk footprint; <= 0 disables
	// eviction.
	CacheMaxBytes int64
	// Workers sizes the run pool (default 2).
	Workers int
	// MaxPending bounds the queued-job count; submissions beyond it get 503
	// (default 64).
	MaxPending int
	// MaxHeapBytes rejects scenarios whose projected build footprint exceeds
	// it (422); 0 admits everything. The projection is
	// experiments.ProjectedHeapBytes.
	MaxHeapBytes uint64
	// MaxRunWall aborts any single run after this much wall time; 0 means no
	// budget.
	MaxRunWall time.Duration
}

// maxFinishedJobs bounds the in-memory job index of a long-lived daemon:
// beyond this many finished jobs, the oldest finished records are forgotten
// (their cache entries survive — resubmitting the document is a hit).
const maxFinishedJobs = 1024

// maxScenarioBytes bounds a submitted document.
const maxScenarioBytes = 1 << 20

// Server is the pdos-serve core, independent of the HTTP listener.
type Server struct {
	opts  Options
	cache *runcache.Store
	sched *scheduler
	mux   *http.ServeMux

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// computeFn executes one scenario; tests substitute a controllable stub
	// to pin scheduling behavior without running the kernel.
	computeFn func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error)

	mu        sync.Mutex
	jobs      map[string]*job
	finished  []string // finish order, for pruning
	nextSeq   uint64
	completed uint64
	failed    uint64
	canceled  uint64

	started time.Time
}

// New opens the cache and starts the worker pool.
func New(opts Options) (*Server, error) {
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 64
	}
	if opts.CacheDir == "" {
		opts.CacheDir = "results/cache"
	}
	cache, err := runcache.Open(opts.CacheDir, opts.CacheMaxBytes)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		cache:     cache,
		sched:     newScheduler(),
		baseCtx:   ctx,
		stop:      stop,
		jobs:      make(map[string]*job),
		computeFn: scenario.ComputeArtifacts,
		started:   clock.Wall.Now(), //pdos:wallclock — uptime reporting
	}
	s.routes()
	for i := 0; i < opts.Workers; i++ {
		s.wg.Add(1)
		go s.worker() //pdos:nondeterministic-ok — worker pool; runs inside each worker stay deterministic
	}
	return s, nil
}

// Close cancels every job, stops the workers, and waits for them.
func (s *Server) Close() {
	s.stop()
	s.sched.close()
	s.wg.Wait()
}

// Cache exposes the underlying store (stats, warm-up seeding in benchmarks).
func (s *Server) Cache() *runcache.Store { return s.cache }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /runs", s.handleSubmit)
	s.mux.HandleFunc("POST /runs/batch", s.handleBatch)
	s.mux.HandleFunc("GET /runs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /runs/{id}/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /runs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /runs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /status", s.handleStatus)
}

// worker drains the scheduler until close.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.sched.next()
		if j == nil {
			return
		}
		s.execute(j)
		s.sched.release()
	}
}

// execute runs one claimed job through the cache. A joined flight that died
// of its twin's cancellation is retried once on this job's own context, so
// one client aborting a run cannot fail an identical submission that was
// merely deduplicated onto it.
func (s *Server) execute(j *job) {
	start := clock.Wall.Now() //pdos:wallclock — per-run wall accounting
	compute := func() (map[string][]byte, error) {
		return s.computeFn(j.ctx, j.cfg, j.setProgress)
	}
	files, hit, err := s.cache.GetOrCompute(j.key, j.cfg.Name, experiments.EngineVersion, compute)
	if err != nil && hit && j.ctx.Err() == nil {
		files, hit, err = s.cache.GetOrCompute(j.key, j.cfg.Name, experiments.EngineVersion, compute)
	}
	wall := clock.Wall.Since(start) //pdos:wallclock — per-run wall accounting
	switch {
	case err == nil:
		s.finalize(j, StateDone, "", files, hit, wall)
	case j.ctx.Err() == context.DeadlineExceeded:
		s.finalize(j, StateFailed, fmt.Sprintf("run exceeded wall budget %v: %v", s.opts.MaxRunWall, err), nil, false, wall)
	case j.ctx.Err() != nil:
		s.finalize(j, StateCanceled, err.Error(), nil, false, wall)
	default:
		s.finalize(j, StateFailed, err.Error(), nil, false, wall)
	}
	j.cancel() // release the wall-budget timer
}

// finalize finishes a job (idempotently) and keeps the terminal counters and
// the finished-job pruning list consistent.
func (s *Server) finalize(j *job, state State, errMsg string, files map[string][]byte, cached bool, wall time.Duration) {
	if !j.finish(state, errMsg, files, cached, wall) {
		return
	}
	s.mu.Lock()
	switch state {
	case StateDone:
		s.completed++
	case StateFailed:
		s.failed++
	case StateCanceled:
		s.canceled++
	}
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
}

// flowCounts splits a resolved graph's population into packet-accurate and
// fluid-aggregated flows for the heap-budget projection.
func flowCounts(g topo.Graph) (packet, fluid int) {
	for _, grp := range g.Groups {
		if grp.Model == topo.ModelFluid {
			fluid += grp.Flows
		} else {
			packet += grp.Flows
		}
	}
	return packet, fluid
}

// submit admits one parsed scenario: cache fast path, admission control,
// enqueue. Returns the job and the HTTP status to answer with.
func (s *Server) submit(cfg scenario.Config, key string, priority int) (*job, int, error) {
	s.mu.Lock()
	s.nextSeq++
	j := &job{
		id:       fmt.Sprintf("r%d", s.nextSeq),
		seq:      s.nextSeq,
		priority: priority,
		key:      key,
		cfg:      cfg,
		done:     make(chan struct{}),
		state:    StateQueued,
	}
	s.jobs[j.id] = j
	s.mu.Unlock()

	// Cache fast path: a known key never touches the kernel or occupies a
	// worker slot. A probe miss is counted once, by the worker's
	// GetOrCompute; a submission rejected below counts no lookup.
	if files, ok := s.cache.Probe(key); ok {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
		j.cancel()
		s.finalize(j, StateDone, "", files, true, 0)
		return j, http.StatusOK, nil
	}

	if s.sched.pending() >= s.opts.MaxPending {
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable,
			fmt.Errorf("queue full: %d jobs pending (max %d)", s.opts.MaxPending, s.opts.MaxPending)
	}

	if s.opts.MaxRunWall > 0 {
		j.ctx, j.cancel = context.WithTimeout(s.baseCtx, s.opts.MaxRunWall)
	} else {
		j.ctx, j.cancel = context.WithCancel(s.baseCtx)
	}
	if !s.sched.enqueue(j) {
		s.finalize(j, StateCanceled, "server shutting down", nil, false, 0)
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server shutting down")
	}
	return j, http.StatusAccepted, nil
}

// lookup finds a job by id.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// --- HTTP handlers ---

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// admitDocument runs the single-document admission pipeline — parse,
// canonical key, heap-budget guard, scheduler submit — for POST /runs. A
// sweep-bearing figure document expands to many runs and is rejected here
// with a pointer to the batch endpoint, which expands it.
func (s *Server) admitDocument(body io.Reader, priority int) (*job, int, error) {
	cfg, err := scenario.Load(body)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if cfg.Sweeps() {
		return nil, http.StatusBadRequest, fmt.Errorf(
			"sweep document expands to %d runs; submit it via POST /runs/batch",
			len(cfg.Measure.Sweep.Values))
	}
	return s.admitConfig(cfg, priority)
}

// admitConfig admits one already-parsed, runnable (non-sweep) scenario:
// canonical key, heap-budget guard, scheduler submit.
func (s *Server) admitConfig(cfg scenario.Config, priority int) (*job, int, error) {
	key, err := scenario.Key(cfg)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if s.opts.MaxHeapBytes > 0 {
		g, err := cfg.Graph()
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		packet, fluid := flowCounts(g)
		if proj := experiments.ProjectedHeapBytes(packet, fluid); proj > s.opts.MaxHeapBytes {
			return nil, http.StatusUnprocessableEntity, fmt.Errorf(
				"scenario projects %d heap bytes (%d packet + %d fluid flows), budget is %d",
				proj, packet, fluid, s.opts.MaxHeapBytes)
		}
	}
	return s.submit(cfg, key, priority)
}

// parsePriority reads the shared ?priority query parameter.
func parsePriority(r *http.Request) (int, error) {
	p := r.URL.Query().Get("priority")
	if p == "" {
		return 0, nil
	}
	priority, err := strconv.Atoi(p)
	if err != nil {
		return 0, fmt.Errorf("bad priority %q", p)
	}
	return priority, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	priority, err := parsePriority(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, status, err := s.admitDocument(http.MaxBytesReader(w, r.Body, maxScenarioBytes), priority)
	if err != nil {
		if status == http.StatusServiceUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		writeError(w, status, "%v", err)
		return
	}
	q := r.URL.Query()
	switch {
	case isTruthy(q.Get("stream")):
		s.streamJob(w, r, j, true)
	case isTruthy(q.Get("wait")):
		select {
		case <-j.done:
		case <-r.Context().Done():
		}
		writeJSON(w, status, j.snapshot(true))
	default:
		writeJSON(w, status, j.snapshot(true))
	}
}

func isTruthy(v string) bool {
	return v == "1" || v == "true" || v == "yes"
}

// maxBatchRuns bounds one POST /runs/batch array; maxBatchBytes its body.
const (
	maxBatchRuns  = 256
	maxBatchBytes = 16 << 20
)

// BatchEntry is one run's outcome in a POST /runs/batch response, in
// submission order. A plain document yields one entry; a sweep-bearing
// figure document yields one entry per expanded point, Point numbering them
// in sweep-value order under the document's Index. A document that failed
// admission carries Error and the HTTP status the failure maps to; an
// admitted run carries its id plus its state snapshot (terminal immediately
// on a cache hit).
type BatchEntry struct {
	Index      int        `json:"index"`
	Point      int        `json:"point,omitempty"` // sweep point ordinal within Index
	ID         string     `json:"id,omitempty"`
	Error      string     `json:"error,omitempty"`
	HTTPStatus int        `json:"httpStatus,omitempty"` // set only on admission failure
	Status     *JobStatus `json:"status,omitempty"`
}

// handleBatch admits a JSON array of scenario documents in one request.
// Each document runs the same admission pipeline as POST /runs — cache fast
// path first (a known key is answered terminally without occupying a worker
// slot), then the heap-budget and queue-bound guards — and failures are
// per-entry: one oversized or malformed document never rejects its
// neighbors. ?priority applies to every entry; ?wait=1 blocks until every
// admitted run reaches a terminal state.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	priority, err := parsePriority(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var docs []json.RawMessage
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBatchBytes))
	if err := dec.Decode(&docs); err != nil {
		writeError(w, http.StatusBadRequest, "batch body must be a JSON array of scenario documents: %v", err)
		return
	}
	if len(docs) == 0 {
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	if len(docs) > maxBatchRuns {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d documents exceeds the %d-run limit", len(docs), maxBatchRuns)
		return
	}

	// Expand first: a sweep-bearing figure document becomes one runnable
	// point per sweep value, and the expanded total — not the document
	// count — is what the batch bound meters. Parse failures consume one
	// entry and never reject their neighbors.
	var entries []BatchEntry
	var points []scenario.Config
	runs := 0
	for i, doc := range docs {
		cfg, err := scenario.Load(bytes.NewReader(doc))
		var pts []scenario.Config
		if err == nil {
			pts, err = cfg.Expand()
		}
		if err != nil {
			entries = append(entries, BatchEntry{Index: i, Error: err.Error(), HTTPStatus: http.StatusBadRequest})
			points = append(points, scenario.Config{})
			continue
		}
		runs += len(pts)
		if runs > maxBatchRuns {
			writeError(w, http.StatusRequestEntityTooLarge,
				"batch expands to more than the %d-run limit at document %d", maxBatchRuns, i)
			return
		}
		for p, pt := range pts {
			entries = append(entries, BatchEntry{Index: i, Point: p})
			points = append(points, pt)
		}
	}
	jobs := make([]*job, len(entries))
	for e := range entries {
		if entries[e].Error != "" {
			continue
		}
		j, status, err := s.admitConfig(points[e], priority)
		if err != nil {
			entries[e].Error = err.Error()
			entries[e].HTTPStatus = status
			continue
		}
		jobs[e] = j
		entries[e].ID = j.id
	}
	if isTruthy(r.URL.Query().Get("wait")) {
		// Like the single-submit ?wait=1, a vanished client stops the wait
		// but not the runs; the response snapshots whatever state each job
		// had reached.
	wait:
		for _, j := range jobs {
			if j == nil {
				continue
			}
			select {
			case <-j.done:
			case <-r.Context().Done():
				break wait
			}
		}
	}
	for i, j := range jobs {
		if j == nil {
			continue
		}
		snap := j.snapshot(false)
		entries[i].Status = &snap
	}
	writeJSON(w, http.StatusOK, entries)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(true))
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	name := r.PathValue("name")
	j.mu.Lock()
	data, ok := j.artifacts[name]
	j.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "run %s has no artifact %q", j.id, name)
		return
	}
	switch {
	case name == scenario.ArtifactResult:
		w.Header().Set("Content-Type", "application/json")
	default:
		w.Header().Set("Content-Type", "text/csv")
	}
	w.Write(data)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	if j.cancel != nil {
		j.cancel()
	}
	// A queued job finishes here; a running one is aborted between timeline
	// slices and finalized by its worker.
	s.finalize(j, StateCanceled, "canceled by client", nil, false, 0)
	writeJSON(w, http.StatusOK, j.snapshot(false))
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such run %q", r.PathValue("id"))
		return
	}
	s.streamJob(w, r, j, false)
}

// streamJob writes chunked JSON lines — one JobStatus per progress change —
// until the job reaches a terminal state or the client goes away. When the
// stream is the submitting request (cancelOnDisconnect), an aborted HTTP
// request cancels the run: a closed laptop lid stops a sweep instead of
// burning the pool.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, j *job, cancelOnDisconnect bool) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	var last JobStatus
	emit := func(withResult bool) bool {
		snap := j.snapshot(withResult)
		if snap.State == last.State && snap.Progress == last.Progress && !withResult {
			return snap.State.terminal()
		}
		last = snap
		if err := enc.Encode(snap); err != nil {
			return true
		}
		if flusher != nil {
			flusher.Flush()
		}
		return snap.State.terminal()
	}
	if emit(false) {
		emit(true)
		return
	}
	for {
		select {
		case <-j.done:
			emit(true)
			return
		case <-r.Context().Done():
			if cancelOnDisconnect {
				if j.cancel != nil {
					j.cancel()
				}
				s.finalize(j, StateCanceled, "client disconnected", nil, false, 0)
			}
			return
		case <-tick.C:
			if emit(false) {
				emit(true)
				return
			}
		}
	}
}

// StatusPayload is the GET /status response.
type StatusPayload struct {
	EngineVersion     string         `json:"engineVersion"`
	UptimeSeconds     float64        `json:"uptimeSeconds"`
	Workers           int            `json:"workers"`
	MaxPending        int            `json:"maxPending"`
	MaxHeapBytes      uint64         `json:"maxHeapBytes,omitempty"`
	MaxRunWallSeconds float64        `json:"maxRunWallSeconds,omitempty"`
	Queue             QueueStats     `json:"queue"`
	Cache             runcache.Stats `json:"cache"`
}

// QueueStats is the scheduler's live depth and terminal counters.
type QueueStats struct {
	Pending   int    `json:"pending"`
	Running   int    `json:"running"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	pending, running := s.sched.depth()
	s.mu.Lock()
	q := QueueStats{
		Pending:   pending,
		Running:   running,
		Completed: s.completed,
		Failed:    s.failed,
		Canceled:  s.canceled,
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, StatusPayload{
		EngineVersion:     experiments.EngineVersion,
		UptimeSeconds:     clock.Wall.Since(s.started).Seconds(), //pdos:wallclock — uptime reporting
		Workers:           s.opts.Workers,
		MaxPending:        s.opts.MaxPending,
		MaxHeapBytes:      s.opts.MaxHeapBytes,
		MaxRunWallSeconds: s.opts.MaxRunWall.Seconds(),
		Queue:             q,
		Cache:             s.cache.Stats(),
	})
}
