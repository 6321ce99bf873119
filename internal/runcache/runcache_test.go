package runcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// key derives a distinct valid store key from any label.
func key(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func open(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestIsKey(t *testing.T) {
	if !IsKey(key("x")) {
		t.Error("sha256 hex should be a key")
	}
	for _, bad := range []string{"", "abc", key("x")[:63], key("x") + "0",
		"ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789ABCDEF0123456789",
		"../../../../../../etc/passwd012345678901234567890123456789012345"} {
		if IsKey(bad) {
			t.Errorf("IsKey(%q) = true", bad)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	files := map[string][]byte{
		"result.json": []byte(`{"delivered":42}`),
		"rate.csv":    []byte("bin,bytes\n0,1000\n"),
	}
	k := key("round-trip")
	if err := s.Put(k, "demo", "engine/1", files); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok {
		t.Fatal("fresh entry missed")
	}
	if len(got) != 2 || !bytes.Equal(got["result.json"], files["result.json"]) || !bytes.Equal(got["rate.csv"], files["rate.csv"]) {
		t.Fatalf("artifacts corrupted in round trip: %v", got)
	}
	if _, ok := got[manifestName]; ok {
		t.Error("manifest leaked into artifacts")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 0 || st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("stats after one hit: %+v", st)
	}
	if _, ok := s.Get(key("absent")); ok {
		t.Error("absent key hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Errorf("miss not counted: %+v", st)
	}
}

func TestReopenKeepsEntries(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	k := key("persist")
	if err := s.Put(k, "", "", map[string][]byte{"a": []byte("alpha")}); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	got, ok := s2.Get(k)
	if !ok || string(got["a"]) != "alpha" {
		t.Fatalf("entry lost across reopen: %v %v", got, ok)
	}
}

func TestCorruptEntrySelfHeals(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, dir string)
	}{
		{"truncated artifact", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "a"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped bytes", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "a"), []byte("XXXXX"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing artifact", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, "a")); err != nil {
				t.Fatal(err)
			}
		}},
		{"bad manifest JSON", func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing manifest", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			root := t.TempDir()
			s := open(t, root, 0)
			k := key(tc.name)
			if err := s.Put(k, "", "", map[string][]byte{"a": []byte("alpha")}); err != nil {
				t.Fatal(err)
			}
			tc.corrupt(t, filepath.Join(root, k))
			if _, ok := s.Get(k); ok {
				t.Fatal("corrupt entry served")
			}
			if _, err := os.Stat(filepath.Join(root, k)); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not removed from disk: %v", err)
			}
			// Recompute path: a fresh Put must land cleanly afterward.
			if err := s.Put(k, "", "", map[string][]byte{"a": []byte("alpha")}); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(k); !ok || string(got["a"]) != "alpha" {
				t.Fatal("recomputed entry not served")
			}
		})
	}
}

func TestOpenRemovesCorruptAndTempDirs(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	k := key("healthy")
	if err := s.Put(k, "", "", map[string][]byte{"a": []byte("alpha")}); err != nil {
		t.Fatal(err)
	}
	bad := key("corrupt")
	if err := os.MkdirAll(filepath.Join(dir, bad), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bad, manifestName), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, tmpPrefix+"stray"), 0o755); err != nil {
		t.Fatal(err)
	}

	s2 := open(t, dir, 0)
	if _, ok := s2.Get(k); !ok {
		t.Error("healthy entry lost on reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, bad)); !os.IsNotExist(err) {
		t.Error("corrupt entry survived reopen")
	}
	if _, err := os.Stat(filepath.Join(dir, tmpPrefix+"stray")); !os.IsNotExist(err) {
		t.Error("stray temp dir survived reopen")
	}
	if st := s2.Stats(); st.Entries != 1 {
		t.Errorf("entries after reopen: %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// Each entry is ~payload + manifest; size the budget for about two.
	payload := bytes.Repeat([]byte("x"), 4096)
	s := open(t, t.TempDir(), 11<<10)
	k1, k2, k3 := key("e1"), key("e2"), key("e3")
	for _, k := range []string{k1, k2, k3} {
		if err := s.Put(k, "", "", map[string][]byte{"blob": payload}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a 2-entry budget: %+v", st)
	}
	if st.Bytes > 11<<10 {
		t.Errorf("byte budget exceeded: %+v", st)
	}
	if _, ok := s.Get(k1); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := s.Get(k3); !ok {
		t.Error("newest entry evicted")
	}

	// Recency ordering: touching k2 must make k3 the eviction victim.
	if _, ok := s.Get(k2); !ok {
		t.Fatal("k2 missing before recency check")
	}
	if err := s.Put(key("e4"), "", "", map[string][]byte{"blob": payload}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k2); !ok {
		t.Error("recently touched entry evicted before stale one")
	}
	if _, ok := s.Get(k3); ok {
		t.Error("stale entry survived over recently touched one")
	}
}

func TestOversizedEntryNotPersisted(t *testing.T) {
	s := open(t, t.TempDir(), 1024)
	k := key("huge")
	if err := s.Put(k, "", "", map[string][]byte{"blob": bytes.Repeat([]byte("x"), 4096)}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(k); ok {
		t.Error("entry bigger than the whole budget was persisted")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after oversized put: %+v", st)
	}
}

func TestGetOrComputeSingleflight(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	k := key("flight")
	var computes atomic.Int64
	release := make(chan struct{})
	compute := func() (map[string][]byte, error) {
		computes.Add(1)
		<-release
		return map[string][]byte{"r": []byte("result")}, nil
	}
	const waiters = 8
	var wg sync.WaitGroup
	hits := make([]bool, waiters)
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			files, hit, err := s.GetOrCompute(k, "demo", "engine/1", compute)
			hits[i], errs[i] = hit, err
			if err == nil && string(files["r"]) != "result" {
				errs[i] = fmt.Errorf("wrong artifact %q", files["r"])
			}
		}(i)
	}
	// Hold the compute open until it has definitely started; waiters that
	// arrive while it runs must join the flight, and any that arrive after
	// it lands hit the disk entry — either way the compute runs once.
	for computes.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times for one key", n)
	}
	misses := 0
	for _, h := range hits {
		if !h {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d waiters computed; want exactly 1", misses)
	}
	// Every lookup counts once: the computing call is the one miss, each
	// joiner or later disk reader one hit.
	if st := s.Stats(); st.Misses != 1 || st.Hits != waiters-1 {
		t.Errorf("stats after %d lookups: %d hits, %d misses; want %d hits, 1 miss",
			waiters, st.Hits, st.Misses, waiters-1)
	}
	// The flight's result was persisted: a later Get hits disk.
	if _, ok := s.Get(k); !ok {
		t.Error("flight result not persisted")
	}
}

func TestGetOrComputeErrorShared(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	k := key("boom")
	wantErr := fmt.Errorf("scenario exploded")
	_, hit, err := s.GetOrCompute(k, "", "", func() (map[string][]byte, error) { return nil, wantErr })
	if hit || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("error compute: hit=%v err=%v", hit, err)
	}
	if _, ok := s.Get(k); ok {
		t.Error("failed compute persisted an entry")
	}
	// The key is retryable after a failure.
	files, hit, err := s.GetOrCompute(k, "", "", func() (map[string][]byte, error) {
		return map[string][]byte{"r": []byte("ok")}, nil
	})
	if err != nil || hit || string(files["r"]) != "ok" {
		t.Fatalf("retry after failure: %v %v %v", files, hit, err)
	}
}

func TestPutRejectsMalformedInput(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.Put("not-a-key", "", "", map[string][]byte{"a": nil}); err == nil {
		t.Error("malformed key accepted")
	}
	if err := s.Put(key("empty"), "", "", nil); err == nil {
		t.Error("empty artifact set accepted")
	}
	for _, bad := range []string{manifestName, "../escape", "a/b", ""} {
		if err := s.Put(key("bad-name"), "", "", map[string][]byte{bad: []byte("x")}); err == nil {
			t.Errorf("illegal artifact name %q accepted", bad)
		}
	}
}
