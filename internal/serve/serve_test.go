package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"pulsedos/internal/scenario"
)

// newTestServer spins up a Server over httptest with a fresh cache dir.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.CacheDir == "" {
		opts.CacheDir = t.TempDir()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallDoc returns a distinct tiny scenario per seed (distinct content
// address), cheap enough for stubbed tests that never run it.
func smallDoc(seed int) string {
	return fmt.Sprintf(`{
		"name": "stub-%d",
		"topology": {"kind": "dumbbell", "flows": 2},
		"warmupSec": 0.2, "measureSec": 0.5, "seed": %d}`, seed, seed)
}

func postRun(t *testing.T, ts *httptest.Server, doc, query string) (JobStatus, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs"+query, "application/json", strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return st, resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, ts, id)
		if st.State.terminal() {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobStatus{}
}

func getStatus(t *testing.T, ts *httptest.Server) StatusPayload {
	t.Helper()
	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatusPayload
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func getArtifact(t *testing.T, ts *httptest.Server, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/runs/" + id + "/artifacts/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact %s/%s: HTTP %d", id, name, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestServeSmoke is the end-to-end CI smoke (make serve-smoke): submit the
// shipped fig8-style scenario twice over real HTTP; the first run computes,
// the second is answered from the cache with byte-identical artifacts, and
// both match a direct kernel recompute.
func TestServeSmoke(t *testing.T) {
	doc, err := os.ReadFile("../../scenarios/fig8-style.json")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Options{Workers: 2})

	first, code := postRun(t, ts, string(doc), "?wait=1")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	if first.State != StateDone || first.Cached {
		t.Fatalf("first run: state %s cached %v (want done, uncached): %s", first.State, first.Cached, first.Error)
	}
	second, code := postRun(t, ts, string(doc), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("second submit: HTTP %d", code)
	}
	if second.State != StateDone || !second.Cached {
		t.Fatalf("second run: state %s cached %v (want done, cached)", second.State, second.Cached)
	}
	if len(first.Artifacts) == 0 || len(second.Artifacts) != len(first.Artifacts) {
		t.Fatalf("artifact lists differ: %v vs %v", first.Artifacts, second.Artifacts)
	}

	// Byte-identity: cached artifacts == computed artifacts == a direct
	// recompute that never saw the cache.
	cfg, err := scenario.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := scenario.ComputeArtifacts(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range first.Artifacts {
		a := getArtifact(t, ts, first.ID, name)
		b := getArtifact(t, ts, second.ID, name)
		if !bytes.Equal(a, b) {
			t.Errorf("artifact %s differs between computed and cached run", name)
		}
		if !bytes.Equal(a, direct[name]) {
			t.Errorf("artifact %s differs from direct recompute", name)
		}
	}
	if _, ok := direct[scenario.ArtifactRate]; !ok {
		t.Error("fig8-style requests a rate series; rate.csv missing from recompute")
	}

	var sum scenario.RunSummary
	if err := json.Unmarshal(getArtifact(t, ts, second.ID, scenario.ArtifactResult), &sum); err != nil {
		t.Fatalf("result.json does not parse: %v", err)
	}
	if sum.Delivered == 0 || sum.SegmentsSent == 0 {
		t.Errorf("implausible cached summary: %+v", sum)
	}

	st := getStatus(t, ts)
	if st.Cache.Hits < 1 || st.Cache.Misses < 1 {
		t.Errorf("cache counters after one compute + one hit: %+v", st.Cache)
	}
	if st.Queue.Completed != 2 {
		t.Errorf("completed count %d, want 2", st.Queue.Completed)
	}
	if st.EngineVersion == "" {
		t.Error("status missing engine version")
	}
}

// TestPriorityOrder pins the drain order: with one worker occupied, a
// high-priority submission leapfrogs an earlier low-priority one.
func TestPriorityOrder(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	var mu sync.Mutex
	var order []string
	started := make(chan string, 8)
	release := make(chan struct{})
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		mu.Lock()
		order = append(order, cfg.Name)
		mu.Unlock()
		started <- cfg.Name
		<-release
		return map[string][]byte{"r": []byte(cfg.Name)}, nil
	}

	blocker, code := postRun(t, ts, smallDoc(1), "")
	if code != http.StatusAccepted {
		t.Fatalf("blocker: HTTP %d", code)
	}
	<-started // the worker is now pinned on the blocker
	low, _ := postRun(t, ts, smallDoc(2), "?priority=0")
	high, _ := postRun(t, ts, smallDoc(3), "?priority=5")
	close(release)
	for _, id := range []string{blocker.ID, low.ID, high.ID} {
		if st := waitDone(t, ts, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"stub-1", "stub-3", "stub-2"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("execution order %v, want %v", order, want)
	}
}

// TestAdmissionControl pins the 503 path: submissions beyond MaxPending
// queued jobs are refused while the pool is busy.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxPending: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		started <- struct{}{}
		<-release
		return map[string][]byte{"r": []byte("x")}, nil
	}
	defer close(release)

	if _, code := postRun(t, ts, smallDoc(1), ""); code != http.StatusAccepted {
		t.Fatalf("first: HTTP %d", code)
	}
	<-started // claimed by the worker, queue empty again
	if _, code := postRun(t, ts, smallDoc(2), ""); code != http.StatusAccepted {
		t.Fatalf("second: HTTP %d", code)
	}
	if _, code := postRun(t, ts, smallDoc(3), ""); code != http.StatusServiceUnavailable {
		t.Fatalf("third submit with a full queue: HTTP %d, want 503", code)
	}
	if st := getStatus(t, ts); st.Queue.Pending != 1 || st.Queue.Running != 1 {
		t.Errorf("queue depth %+v, want 1 pending / 1 running", st.Queue)
	}
}

// TestHeapBudgetRejects pins 422 admission: a scenario whose projected build
// footprint exceeds MaxHeapBytes never reaches the queue.
func TestHeapBudgetRejects(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxHeapBytes: 1})
	if _, code := postRun(t, ts, smallDoc(1), ""); code != http.StatusUnprocessableEntity {
		t.Fatalf("HTTP %d, want 422", code)
	}
	if st := getStatus(t, ts); st.Queue.Pending != 0 || st.Queue.Running != 0 {
		t.Errorf("rejected scenario reached the queue: %+v", st.Queue)
	}
}

// TestBadScenarioRejected pins 400 on malformed documents.
func TestBadScenarioRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for name, doc := range map[string]string{
		"unknown field": `{"topology": {"kind": "dumbbell"}, "measureSec": 1, "typoField": 3}`,
		"bad kind":      `{"topology": {"kind": "donut"}, "measureSec": 1}`,
		"not json":      `{`,
		"bad attack":    `{"topology": {"kind": "dumbbell"}, "measureSec": 1, "attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50, "gamma": 0.5, "periodMs": 900}}`,
	} {
		if _, code := postRun(t, ts, doc, ""); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", name, code)
		}
	}
}

// TestCancelRunning pins DELETE semantics: a running job's context is
// canceled, the job lands in canceled state, and the counter moves.
func TestCancelRunning(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	started := make(chan struct{})
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	st, _ := postRun(t, ts, smallDoc(1), "")
	<-started
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/runs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	final := waitDone(t, ts, st.ID)
	if final.State != StateCanceled {
		t.Fatalf("state %s, want canceled", final.State)
	}
	if stat := getStatus(t, ts); stat.Queue.Canceled != 1 {
		t.Errorf("canceled counter %d, want 1", stat.Queue.Canceled)
	}
}

// TestWallBudget pins the per-run wall limit: a run that outlives MaxRunWall
// is aborted between timeline slices and reported failed with the budget in
// the error.
func TestWallBudget(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxRunWall: 30 * time.Millisecond})
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		<-ctx.Done() // a real run polls ctx between RunUntil slices
		return nil, ctx.Err()
	}
	st, _ := postRun(t, ts, smallDoc(1), "?wait=1")
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed", st.State)
	}
	if !strings.Contains(st.Error, "wall budget") {
		t.Errorf("error %q does not name the wall budget", st.Error)
	}
}

// TestCachedFastPathSkipsWorker pins the hit path: a pre-seeded key is
// answered done+cached without invoking any compute.
func TestCachedFastPathSkipsWorker(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		t.Error("compute invoked for a cached key")
		return nil, fmt.Errorf("unreachable")
	}
	doc := smallDoc(42)
	cfg, err := scenario.Load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{scenario.ArtifactResult: []byte(`{"delivered": 7}`)}
	if err := s.Cache().Put(key, cfg.Name, "test", files); err != nil {
		t.Fatal(err)
	}
	st, code := postRun(t, ts, doc, "")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", code)
	}
	if st.State != StateDone || !st.Cached || st.Progress != 1 {
		t.Fatalf("fast path: %+v", st)
	}
	if got := getArtifact(t, ts, st.ID, scenario.ArtifactResult); !bytes.Equal(got, files[scenario.ArtifactResult]) {
		t.Errorf("served %q, want the seeded artifact", got)
	}
}

// TestEventsStream pins the chunked progress stream: JSON lines with
// monotone progress, terminated by a terminal-state line carrying the
// result.
func TestEventsStream(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	advance := make(chan float64)
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		for frac := range advance {
			progress(frac)
		}
		return map[string][]byte{scenario.ArtifactResult: []byte(`{"delivered": 1}`)}, nil
	}
	st, _ := postRun(t, ts, smallDoc(1), "")

	resp, err := http.Get(ts.URL + "/runs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var lines []JobStatus
	readLine := func() JobStatus {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early after %d lines: %v", len(lines), sc.Err())
		}
		var js JobStatus
		if err := json.Unmarshal(sc.Bytes(), &js); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, js)
		return js
	}
	readLine() // initial snapshot
	advance <- 0.5
	for {
		if js := readLine(); js.Progress >= 0.5 {
			break
		}
	}
	close(advance)
	var final JobStatus
	for sc.Scan() {
		final = JobStatus{}
		if err := json.Unmarshal(sc.Bytes(), &final); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, final)
	}
	if final.State != StateDone || final.Progress != 1 {
		t.Fatalf("final line %+v, want done at progress 1", final)
	}
	if len(final.Result) == 0 {
		t.Error("terminal stream line missing result payload")
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].Progress < lines[i-1].Progress {
			t.Errorf("progress went backward: %v then %v", lines[i-1].Progress, lines[i].Progress)
		}
	}
}

// TestConcurrentIdenticalSubmissions pins the dedup path end to end: two
// simultaneous submissions of one document run the kernel once.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	var computes int32
	var mu sync.Mutex
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		started <- struct{}{}
		<-release
		return map[string][]byte{scenario.ArtifactResult: []byte(`{"delivered": 1}`)}, nil
	}
	doc := smallDoc(1)
	a, _ := postRun(t, ts, doc, "")
	<-started // first claimed and computing; the twin must join its flight
	b, _ := postRun(t, ts, doc, "")
	close(release)
	fa, fb := waitDone(t, ts, a.ID), waitDone(t, ts, b.ID)
	if fa.State != StateDone || fb.State != StateDone {
		t.Fatalf("states %s/%s", fa.State, fb.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if computes != 1 {
		t.Errorf("kernel ran %d times for identical documents", computes)
	}
	if !fa.Cached && !fb.Cached {
		t.Error("neither twin reported a cache/dedup hit")
	}
	// A third submission takes the fast path. Each of the three lookups
	// counts once: the computing twin's miss, the other twin's hit (a
	// flight join, or a disk hit if its worker claimed it late) and the
	// fast-path hit.
	if c, code := postRun(t, ts, doc, ""); code != http.StatusOK || !c.Cached {
		t.Fatalf("resubmission: HTTP %d, %+v", code, c)
	}
	if st := s.Cache().Stats(); st.Hits+st.Misses != 3 || st.Misses != 1 {
		t.Errorf("cache counters after 3 submissions, 1 compute: %+v, want hits+misses 3, misses 1", st)
	}
}
