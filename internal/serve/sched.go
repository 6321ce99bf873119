package serve

import (
	"container/heap"
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pulsedos/internal/scenario"
)

// State is a job's lifecycle phase.
type State string

const (
	// StateQueued: admitted, waiting for a worker.
	StateQueued State = "queued"
	// StateRunning: executing on a worker (or joined to an in-flight twin).
	StateRunning State = "running"
	// StateDone: artifacts available — computed or served from cache.
	StateDone State = "done"
	// StateFailed: the scenario errored or exceeded its wall budget.
	StateFailed State = "failed"
	// StateCanceled: canceled by the client before completion.
	StateCanceled State = "canceled"
)

// terminal reports whether a state is final.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is one submitted scenario run.
type job struct {
	id       string
	seq      uint64 // submission order, the FIFO tie-break within a priority
	priority int
	key      string // content address (scenario.Key)
	cfg      scenario.Config

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed exactly once, on finish

	progress atomic.Uint64 // math.Float64bits of the completed fraction

	mu        sync.Mutex
	state     State
	cached    bool
	artifacts map[string][]byte
	errMsg    string
	wall      time.Duration
}

// JobStatus is the JSON view of a job served by the runs endpoints.
type JobStatus struct {
	ID          string          `json:"id"`
	Name        string          `json:"name,omitempty"`
	Key         string          `json:"key"`
	State       State           `json:"state"`
	Priority    int             `json:"priority,omitempty"`
	Cached      bool            `json:"cached"`
	Progress    float64         `json:"progress"`
	Error       string          `json:"error,omitempty"`
	Artifacts   []string        `json:"artifacts,omitempty"`
	WallSeconds float64         `json:"wallSeconds,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

func (j *job) setProgress(frac float64) {
	j.progress.Store(math.Float64bits(frac))
}

func (j *job) getProgress() float64 {
	return math.Float64frombits(j.progress.Load())
}

// begin transitions queued → running; false if the job already finished
// (canceled while queued), telling the worker to skip it.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	return true
}

// finish moves the job to a terminal state exactly once; later calls no-op.
// Reports whether this call performed the transition (so callers bump the
// right server counter exactly once).
func (j *job) finish(state State, errMsg string, files map[string][]byte, cached bool, wall time.Duration) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	j.artifacts = files
	j.cached = cached
	j.wall = wall
	if state == StateDone {
		j.setProgress(1)
	}
	close(j.done)
	return true
}

// snapshot renders the job's current JSON view. withResult embeds the
// result.json bytes (wait/stream responses); plain polls omit them.
func (j *job) snapshot(withResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		Name:        j.cfg.Name,
		Key:         j.key,
		State:       j.state,
		Priority:    j.priority,
		Cached:      j.cached,
		Progress:    j.getProgress(),
		Error:       j.errMsg,
		WallSeconds: j.wall.Seconds(),
	}
	if len(j.artifacts) > 0 {
		st.Artifacts = make([]string, 0, len(j.artifacts))
		for name := range j.artifacts { //pdos:nondeterministic-ok — sorted immediately below
			st.Artifacts = append(st.Artifacts, name)
		}
		sort.Strings(st.Artifacts)
		if withResult {
			st.Result = json.RawMessage(j.artifacts[scenario.ArtifactResult])
		}
	}
	return st
}

// jobQueue is a max-heap: higher priority first, FIFO within a priority.
type jobQueue []*job

func (q jobQueue) Len() int { return len(q) }
func (q jobQueue) Less(i, k int) bool {
	if q[i].priority != q[k].priority {
		return q[i].priority > q[k].priority
	}
	return q[i].seq < q[k].seq
}
func (q jobQueue) Swap(i, k int) { q[i], q[k] = q[k], q[i] }
func (q *jobQueue) Push(x any)   { *q = append(*q, x.(*job)) }
func (q *jobQueue) Pop() any {
	old := *q
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return j
}

// scheduler is the bounded dispatch queue the worker pool drains. It
// generalizes experiments.RunTasks from "run N known tasks" to "run an open
// stream of prioritized submissions": same bounded parallelism, but jobs
// arrive over HTTP and drain highest-priority-first.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobQueue
	running int
	closed  bool
}

func newScheduler() *scheduler {
	s := &scheduler{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// enqueue admits a job; false if the scheduler is shut down.
func (s *scheduler) enqueue(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	heap.Push(&s.queue, j)
	s.cond.Signal()
	return true
}

// next blocks until a job is available and claims it; nil after close. The
// returned job is already transitioned to running; jobs canceled while
// queued are skipped and dropped here.
func (s *scheduler) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			return nil
		}
		j := heap.Pop(&s.queue).(*job)
		if !j.begin() {
			continue // canceled while queued
		}
		s.running++
		return j
	}
}

// release marks one claimed job finished executing.
func (s *scheduler) release() {
	s.mu.Lock()
	s.running--
	s.mu.Unlock()
}

// pending reports the queued (not yet claimed) job count.
func (s *scheduler) pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// depth reports (pending, running).
func (s *scheduler) depth() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.running
}

// close wakes every blocked worker; queued jobs are abandoned (their
// contexts are canceled by the server's base context).
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
}
