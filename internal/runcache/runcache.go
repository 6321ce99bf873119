// Package runcache is a content-addressed on-disk store for memoized
// scenario results. Determinism is lint-enforced across the simulation
// packages (DESIGN.md §10), which makes a run's artifacts a pure function of
// (canonical scenario document, engine version); the caller hashes that pair
// into a 64-hex-character key (scenario.Key) and this package maps the key to
// the artifacts the run produced.
//
// Layout: one directory per key under the store root,
//
//	<root>/<key>/manifest.json   — key, label, engine version, file digests
//	<root>/<key>/<artifact>      — e.g. result.json, rate.csv, series.csv
//
// Guarantees:
//
//   - Singleflight: concurrent GetOrCompute calls for the same key run the
//     compute function once; the rest wait and share the result.
//   - LRU byte budget: the store never holds more than MaxBytes of artifacts
//     on disk; least-recently-used entries are evicted on insert. An entry
//     larger than the whole budget is returned to the caller but never
//     persisted.
//   - Self-healing: a missing, unparsable, or digest-mismatched entry is
//     deleted and reported as a miss — the store recomputes rather than ever
//     serving bytes it cannot prove it wrote.
//
// The returned artifact maps share backing arrays between waiters of one
// flight; callers must treat them as immutable.
package runcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"pulsedos/internal/perf/clock"
)

// manifestName is the per-entry metadata file. It is not an artifact: Get
// never returns it and its bytes still count toward the byte budget.
const manifestName = "manifest.json"

// Stats is a point-in-time snapshot of the store's counters. Every lookup —
// a Get or a GetOrCompute call with a well-formed key — counts exactly once,
// as a hit or as a miss, so Hits + Misses is the number of lookups. A
// GetOrCompute that joins an in-flight compute for its key is a hit (and a
// Deduped); only the call that runs the compute counts the miss.
type Stats struct {
	Hits      uint64 `json:"hits"`      // lookups served from disk or by joining an in-flight compute
	Misses    uint64 `json:"misses"`    // lookups that found no entry (absent or self-healed); a Probe miss counts at its GetOrCompute
	Evictions uint64 `json:"evictions"` // entries removed by the LRU byte budget
	Deduped   uint64 `json:"deduped"`   // subset of Hits served by joining an in-flight compute
	Entries   int    `json:"entries"`   // entries currently on disk
	Bytes     int64  `json:"bytes"`     // artifact + manifest bytes currently on disk
}

// Store is a content-addressed artifact cache rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	root     string
	maxBytes int64

	mu        sync.Mutex
	entries   map[string]*entry
	lru       *list.List // front = most recently used
	bytes     int64
	hits      uint64
	misses    uint64
	evictions uint64
	deduped   uint64
	flights   map[string]*flight
}

// entry is one on-disk key directory the store believes is intact.
type entry struct {
	key   string
	bytes int64
	elem  *list.Element
}

// flight is one in-progress computation other submitters can join.
type flight struct {
	done  chan struct{}
	files map[string][]byte
	err   error
}

// manifest is the JSON shape of manifest.json.
type manifest struct {
	Key           string      `json:"key"`
	Label         string      `json:"label,omitempty"`
	EngineVersion string      `json:"engine_version,omitempty"`
	CreatedUnix   int64       `json:"created_unix"`
	Files         []fileEntry `json:"files"`
}

type fileEntry struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// IsKey reports whether s has the shape of a store key: 64 lowercase hex
// characters (a SHA-256 digest), which is also what makes it a safe
// single-segment directory name.
func IsKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Open creates or reopens a store rooted at dir. maxBytes <= 0 disables the
// byte budget. Existing entries are re-indexed (oldest-created = first
// evicted; access recency is tracked in memory only) and anything that fails
// verification is removed on the spot.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runcache: open: %w", err)
	}
	s := &Store{
		root:     dir,
		maxBytes: maxBytes,
		entries:  make(map[string]*entry),
		lru:      list.New(),
		flights:  make(map[string]*flight),
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runcache: open: %w", err)
	}
	type found struct {
		key     string
		bytes   int64
		created int64
	}
	var kept []found
	for _, de := range dirents {
		name := de.Name()
		if !de.IsDir() {
			continue
		}
		if !IsKey(name) {
			// Leftover temp dir from an interrupted Put, or foreign junk
			// someone dropped in the root: temp dirs are ours to clean.
			if strings.HasPrefix(name, tmpPrefix) {
				os.RemoveAll(filepath.Join(dir, name))
			}
			continue
		}
		m, n, err := verifyEntry(filepath.Join(dir, name), name)
		if err != nil {
			os.RemoveAll(filepath.Join(dir, name))
			continue
		}
		kept = append(kept, found{key: name, bytes: n, created: m.CreatedUnix})
	}
	sort.Slice(kept, func(i, j int) bool {
		if kept[i].created != kept[j].created {
			return kept[i].created < kept[j].created
		}
		return kept[i].key < kept[j].key
	})
	for _, f := range kept {
		e := &entry{key: f.key, bytes: f.bytes}
		e.elem = s.lru.PushFront(e)
		s.entries[f.key] = e
		s.bytes += f.bytes
	}
	s.mu.Lock()
	s.evictToFitLocked(0)
	s.mu.Unlock()
	return s, nil
}

// Root reports the store's on-disk root directory.
func (s *Store) Root() string { return s.root }

// Stats snapshots the store counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		Misses:    s.misses,
		Evictions: s.evictions,
		Deduped:   s.deduped,
		Entries:   len(s.entries),
		Bytes:     s.bytes,
	}
}

// Get returns the artifacts stored under key, or (nil, false) on a miss. A
// corrupt entry — unreadable manifest, missing file, digest mismatch — is
// deleted and reported as a miss.
func (s *Store) Get(key string) (map[string][]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	files, ok := s.lookupLocked(key)
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return files, ok
}

// Probe is the fast path in front of GetOrCompute: it returns the artifacts
// stored under key like Get, but counts the lookup only when it hits. On a
// miss the caller goes on to GetOrCompute the same key, which counts the
// lookup — as a miss, or as a hit when the entry or its in-flight compute
// appeared in between — so one lookup never counts twice.
func (s *Store) Probe(key string) (map[string][]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	files, ok := s.lookupLocked(key)
	if ok {
		s.hits++
	}
	return files, ok
}

// lookupLocked reads the entry under key, self-healing a corrupt one. It
// counts nothing: each caller counts its lookup once, as a hit or a miss.
func (s *Store) lookupLocked(key string) (map[string][]byte, bool) {
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	files, err := s.loadEntry(key)
	if err != nil {
		s.dropLocked(e)
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	return files, true
}

// loadEntry reads and verifies one entry's artifacts.
func (s *Store) loadEntry(key string) (map[string][]byte, error) {
	dir := filepath.Join(s.root, key)
	m, _, err := verifyEntry(dir, key)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(m.Files))
	for _, fe := range m.Files {
		data, err := os.ReadFile(filepath.Join(dir, fe.Name))
		if err != nil {
			return nil, err
		}
		files[fe.Name] = data
	}
	return files, nil
}

// verifyEntry checks an entry directory end to end: parsable manifest with
// the expected key, every listed artifact present with the recorded size and
// SHA-256. Returns the manifest and the entry's total on-disk bytes
// (artifacts + manifest).
func verifyEntry(dir, key string) (manifest, int64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return manifest{}, 0, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, 0, fmt.Errorf("runcache: manifest: %w", err)
	}
	if m.Key != key {
		return manifest{}, 0, fmt.Errorf("runcache: manifest key %q under directory %q", m.Key, key)
	}
	total := int64(len(raw))
	for _, fe := range m.Files {
		if fe.Name == manifestName || fe.Name != filepath.Base(fe.Name) || fe.Name == "." {
			return manifest{}, 0, fmt.Errorf("runcache: manifest lists illegal artifact name %q", fe.Name)
		}
		data, err := os.ReadFile(filepath.Join(dir, fe.Name))
		if err != nil {
			return manifest{}, 0, err
		}
		if int64(len(data)) != fe.Bytes {
			return manifest{}, 0, fmt.Errorf("runcache: %s: %d bytes, manifest says %d", fe.Name, len(data), fe.Bytes)
		}
		if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != fe.SHA256 {
			return manifest{}, 0, fmt.Errorf("runcache: %s: content digest mismatch", fe.Name)
		}
		total += fe.Bytes
	}
	return m, total, nil
}

// tmpPrefix marks in-progress entry directories; Open sweeps strays.
const tmpPrefix = ".tmp-"

// Put stores files under key, replacing any existing entry and evicting
// least-recently-used entries until the byte budget holds. An entry bigger
// than the whole budget is silently not persisted (the result is still
// correct — the cache just stays cold for it).
func (s *Store) Put(key, label, engineVersion string, files map[string][]byte) error {
	if !IsKey(key) {
		return fmt.Errorf("runcache: put: malformed key %q", key)
	}
	if len(files) == 0 {
		return errors.New("runcache: put: no artifacts")
	}
	names := make([]string, 0, len(files))
	for name := range files { //pdos:nondeterministic-ok — names are sorted before any ordered use
		names = append(names, name)
	}
	sort.Strings(names)
	m := manifest{
		Key:           key,
		Label:         label,
		EngineVersion: engineVersion,
		CreatedUnix:   clock.Wall.Now().Unix(), //pdos:wallclock — cache bookkeeping (eviction age), never simulation state
	}
	var total int64
	for _, name := range names {
		if name == manifestName || name != filepath.Base(name) || name == "." || name == "" {
			return fmt.Errorf("runcache: put: illegal artifact name %q", name)
		}
		data := files[name]
		sum := sha256.Sum256(data)
		m.Files = append(m.Files, fileEntry{Name: name, Bytes: int64(len(data)), SHA256: hex.EncodeToString(sum[:])})
		total += int64(len(data))
	}
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("runcache: put: %w", err)
	}
	raw = append(raw, '\n')
	total += int64(len(raw))
	if s.maxBytes > 0 && total > s.maxBytes {
		return nil
	}

	// Build the entry in a temp directory, then swap it in under the lock so
	// readers never observe a half-written entry.
	tmp, err := os.MkdirTemp(s.root, tmpPrefix+"*")
	if err != nil {
		return fmt.Errorf("runcache: put: %w", err)
	}
	cleanup := true
	defer func() {
		if cleanup {
			os.RemoveAll(tmp)
		}
	}()
	for _, name := range names {
		if err := os.WriteFile(filepath.Join(tmp, name), files[name], 0o644); err != nil {
			return fmt.Errorf("runcache: put: %w", err)
		}
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), raw, 0o644); err != nil {
		return fmt.Errorf("runcache: put: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.entries[key]; ok {
		s.dropLocked(old)
	}
	s.evictToFitLocked(total)
	dest := filepath.Join(s.root, key)
	os.RemoveAll(dest) // dropLocked handles the indexed case; this clears unindexed leftovers
	if err := os.Rename(tmp, dest); err != nil {
		return fmt.Errorf("runcache: put: %w", err)
	}
	cleanup = false
	e := &entry{key: key, bytes: total}
	e.elem = s.lru.PushFront(e)
	s.entries[key] = e
	s.bytes += total
	return nil
}

// evictToFitLocked removes least-recently-used entries until incoming more
// bytes fit under the budget.
func (s *Store) evictToFitLocked(incoming int64) {
	if s.maxBytes <= 0 {
		return
	}
	for s.bytes+incoming > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		s.dropLocked(back.Value.(*entry))
		s.evictions++
	}
}

// dropLocked removes an entry from the index and from disk.
func (s *Store) dropLocked(e *entry) {
	s.lru.Remove(e.elem)
	delete(s.entries, e.key)
	s.bytes -= e.bytes
	os.RemoveAll(filepath.Join(s.root, e.key))
}

// GetOrCompute returns the artifacts under key, computing and persisting
// them on a miss. Concurrent calls for one key share a single compute
// (singleflight); joiners count as hits. hit reports whether the artifacts
// came from cache or an in-flight twin rather than this call's own compute.
// A compute error is shared with every joined waiter and nothing is
// persisted; a persistence failure is swallowed — the computed artifacts are
// still returned, the cache merely stays cold for that key.
func (s *Store) GetOrCompute(key, label, engineVersion string, compute func() (map[string][]byte, error)) (files map[string][]byte, hit bool, err error) {
	if !IsKey(key) {
		return nil, false, fmt.Errorf("runcache: malformed key %q", key)
	}
	s.mu.Lock()
	if files, ok := s.lookupLocked(key); ok {
		s.hits++
		s.mu.Unlock()
		return files, true, nil
	}
	if f, ok := s.flights[key]; ok {
		s.hits++
		s.deduped++
		s.mu.Unlock()
		<-f.done
		return f.files, true, f.err
	}
	s.misses++
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.mu.Unlock()

	files, err = compute()
	if err == nil {
		s.Put(key, label, engineVersion, files)
	}
	f.files, f.err = files, err
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
	close(f.done)
	return files, false, err
}
