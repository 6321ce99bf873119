package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"pulsedos/internal/scenario"
)

func postBatch(t *testing.T, ts *httptest.Server, body, query string) ([]BatchEntry, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/runs/batch"+query, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var entries []BatchEntry
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&entries); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	return entries, resp.StatusCode
}

func batchBody(docs ...string) string {
	return "[" + strings.Join(docs, ",") + "]"
}

// TestBatchSubmit pins the happy path: N documents admit in order, each gets
// its own run id, and ?wait=1 returns every entry terminal.
func TestBatchSubmit(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		return map[string][]byte{scenario.ArtifactResult: []byte(`{"ok": true}`)}, nil
	}
	entries, code := postBatch(t, ts, batchBody(smallDoc(1), smallDoc(2), smallDoc(3)), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", code)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries, want 3", len(entries))
	}
	seen := map[string]bool{}
	for i, e := range entries {
		if e.Index != i {
			t.Errorf("entry %d carries index %d", i, e.Index)
		}
		if e.Error != "" || e.ID == "" {
			t.Fatalf("entry %d not admitted: %+v", i, e)
		}
		if seen[e.ID] {
			t.Errorf("entry %d reuses run id %s", i, e.ID)
		}
		seen[e.ID] = true
		if e.Status == nil || e.Status.State != StateDone {
			t.Errorf("entry %d not done after ?wait=1: %+v", i, e.Status)
		}
		if got := getJob(t, ts, e.ID); got.State != StateDone {
			t.Errorf("run %s not retrievable as done: %+v", e.ID, got)
		}
	}
}

// TestBatchMixedAdmission pins per-entry failure isolation: a malformed
// document inside the array is reported on its own entry (with the HTTP
// status it maps to) and never rejects its neighbors.
func TestBatchMixedAdmission(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		return map[string][]byte{scenario.ArtifactResult: []byte(`{}`)}, nil
	}
	bad := `{"topology": {"kind": "donut"}, "measureSec": 1}`
	entries, code := postBatch(t, ts, batchBody(smallDoc(1), bad, smallDoc(2)), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", code)
	}
	if len(entries) != 3 {
		t.Fatalf("%d entries, want 3", len(entries))
	}
	if entries[0].Error != "" || entries[2].Error != "" {
		t.Errorf("good neighbors rejected: %+v / %+v", entries[0], entries[2])
	}
	if entries[1].Error == "" || entries[1].ID != "" {
		t.Errorf("malformed document admitted: %+v", entries[1])
	}
	if entries[1].HTTPStatus != http.StatusBadRequest {
		t.Errorf("malformed document mapped to HTTP %d, want 400", entries[1].HTTPStatus)
	}
}

// TestBatchCacheFastPath pins the per-document cache fast path: a document
// whose key is already stored is answered done+cached inside the batch
// without invoking compute, while unseen neighbors run normally.
func TestBatchCacheFastPath(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	cachedDoc := smallDoc(42)
	cfg, err := scenario.Load(strings.NewReader(cachedDoc))
	if err != nil {
		t.Fatal(err)
	}
	key, err := scenario.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cache().Put(key, cfg.Name, "test", map[string][]byte{scenario.ArtifactResult: []byte(`{"cached": true}`)}); err != nil {
		t.Fatal(err)
	}
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		if cfg.Seed == 42 {
			return nil, fmt.Errorf("compute invoked for the cached key")
		}
		return map[string][]byte{scenario.ArtifactResult: []byte(`{}`)}, nil
	}
	entries, code := postBatch(t, ts, batchBody(cachedDoc, smallDoc(7)), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", code)
	}
	if e := entries[0]; e.Status == nil || e.Status.State != StateDone || !e.Status.Cached {
		t.Errorf("cached entry: %+v", e.Status)
	}
	if e := entries[1]; e.Status == nil || e.Status.State != StateDone || e.Status.Cached {
		t.Errorf("computed entry: %+v", e.Status)
	}
}

// TestBatchRejectsMalformedBodies pins whole-request rejections: non-array
// bodies, empty arrays, and arrays beyond the run limit.
func TestBatchRejectsMalformedBodies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if _, code := postBatch(t, ts, `{"not": "an array"}`, ""); code != http.StatusBadRequest {
		t.Errorf("object body: HTTP %d, want 400", code)
	}
	if _, code := postBatch(t, ts, `[]`, ""); code != http.StatusBadRequest {
		t.Errorf("empty array: HTTP %d, want 400", code)
	}
	huge := make([]string, maxBatchRuns+1)
	for i := range huge {
		huge[i] = smallDoc(i)
	}
	if _, code := postBatch(t, ts, batchBody(huge...), ""); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized array: HTTP %d, want 413", code)
	}
}

// sweepDoc is a figure-style sweep carrier: one document expanding to one
// attacked run per gamma value.
func sweepDoc(gammas ...float64) string {
	vals := make([]string, len(gammas))
	for i, g := range gammas {
		vals[i] = fmt.Sprintf("%g", g)
	}
	return fmt.Sprintf(`{
		"name": "sweep-stub",
		"topology": {"kind": "dumbbell", "flows": 2},
		"attack": {"kind": "aimd", "rateMbps": 10, "extentMs": 50},
		"measure": {"sweep": {"axis": "gamma", "values": [%s]}},
		"warmupSec": 0.2, "measureSec": 0.5, "seed": 3}`, strings.Join(vals, ","))
}

// TestBatchExpandsSweepDocument pins the figure-document path: a sweep
// carrier submitted through the batch endpoint yields one entry per expanded
// point — numbered (index, point) in sweep-value order — each its own run
// with the gamma substituted, while plain neighbors keep one entry.
func TestBatchExpandsSweepDocument(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2})
	var mu sync.Mutex
	var gammas []float64
	s.computeFn = func(ctx context.Context, cfg scenario.Config, progress func(float64)) (map[string][]byte, error) {
		if cfg.Attack != nil {
			mu.Lock()
			gammas = append(gammas, cfg.Attack.Gamma)
			mu.Unlock()
		}
		return map[string][]byte{scenario.ArtifactResult: []byte(`{}`)}, nil
	}
	entries, code := postBatch(t, ts, batchBody(sweepDoc(0.3, 0.5, 0.8), smallDoc(1)), "?wait=1")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d, want 200", code)
	}
	if len(entries) != 4 {
		t.Fatalf("%d entries, want 4 (3 sweep points + 1 plain)", len(entries))
	}
	wantRef := [][2]int{{0, 0}, {0, 1}, {0, 2}, {1, 0}}
	for i, e := range entries {
		if e.Index != wantRef[i][0] || e.Point != wantRef[i][1] {
			t.Errorf("entry %d carries (index=%d, point=%d), want (%d, %d)",
				i, e.Index, e.Point, wantRef[i][0], wantRef[i][1])
		}
		if e.Error != "" || e.ID == "" {
			t.Fatalf("entry %d not admitted: %+v", i, e)
		}
		if e.Status == nil || e.Status.State != StateDone {
			t.Errorf("entry %d not done after ?wait=1: %+v", i, e.Status)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	sort.Float64s(gammas)
	if want := []float64{0.3, 0.5, 0.8}; !slicesEqual(gammas, want) {
		t.Errorf("computed gammas %v, want %v", gammas, want)
	}
}

func slicesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchMetersExpandedRuns pins that the batch bound meters expanded
// points, not submitted documents: a few carriers whose expansion crosses
// the run limit are rejected whole.
func TestBatchMetersExpandedRuns(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	gammas := make([]float64, 200)
	for i := range gammas {
		gammas[i] = float64(i+1) / 256
	}
	wide := sweepDoc(gammas...)
	if _, code := postBatch(t, ts, batchBody(wide, wide), ""); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-expanding batch: HTTP %d, want 413", code)
	}
}

// TestSingleRunRejectsSweep pins that the single-run endpoint refuses a
// sweep carrier (it maps to many runs) and points at the batch endpoint.
func TestSingleRunRejectsSweep(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/runs", "application/json", strings.NewReader(sweepDoc(0.3, 0.5)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("HTTP %d, want 400", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "batch") {
		t.Errorf("rejection %q does not point at the batch endpoint", body)
	}
}
