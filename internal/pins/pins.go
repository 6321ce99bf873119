// Package pins checks test outputs against committed SHA-256 digest files.
// A digest file holds a "# GOARCH=<arch>" header, other "#" comment lines,
// and one "<sha256>  <name>" line per pinned output. The digests are only
// meaningful on the architecture that recorded them (float results are
// bit-stable per GOARCH), so on any other architecture the check is skipped
// and says so. Rewriting a pin is a deliberate hand edit: a mismatch prints
// the replacement line, and there is no update mode.
package pins

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"runtime"
	"strings"
	"testing"
)

// Set is one parsed digest file.
type Set struct {
	Path string
	Arch string            // GOARCH the digests were recorded on
	Sums map[string]string // pin name → hex SHA-256
}

// Load parses the digest file at path, failing the test on a malformed or
// duplicate line or a missing GOARCH header.
func Load(t testing.TB, path string) Set {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := Set{Path: path, Sums: map[string]string{}}
	for i, line := range strings.Split(string(raw), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "#"):
			if arch, ok := strings.CutPrefix(line, "# GOARCH="); ok {
				s.Arch = arch
			}
		default:
			sum, name, ok := strings.Cut(line, "  ")
			if !ok || len(sum) != sha256.Size*2 || name == "" {
				t.Fatalf("%s:%d: malformed pin %q", path, i+1, line)
			}
			if _, dup := s.Sums[name]; dup {
				t.Fatalf("%s:%d: %s pinned twice", path, i+1, name)
			}
			s.Sums[name] = sum
		}
	}
	if s.Arch == "" {
		t.Fatalf("%s: no # GOARCH= header", path)
	}
	if !s.Native() {
		t.Logf("%s: pins recorded on GOARCH=%s, running on GOARCH=%s: digest check skipped",
			path, s.Arch, runtime.GOARCH)
	}
	return s
}

// Native reports whether the digests were recorded on this GOARCH.
func (s Set) Native() bool { return s.Arch == runtime.GOARCH }

// Check compares the SHA-256 of rendered against the pin called name. Off
// the recorded GOARCH it does nothing.
func (s Set) Check(t testing.TB, name, rendered string) {
	t.Helper()
	if !s.Native() {
		return
	}
	sum := sha256.Sum256([]byte(rendered))
	got := hex.EncodeToString(sum[:])
	if want, ok := s.Sums[name]; !ok {
		t.Errorf("%s: no pin in %s", name, s.Path)
	} else if got != want {
		t.Errorf("%s: digest %s, pinned %s; if the change is intended, replace the pin line with\n%s  %s",
			name, got, want, got, name)
	}
}
