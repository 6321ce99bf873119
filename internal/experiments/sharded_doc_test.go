package experiments_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"os"
	"path/filepath"
	"testing"

	"pulsedos/internal/scenario"
)

// TestShardedTestbedDocument runs the shipped test-bed document — delayed
// ACKs under attack, whose boundary deliveries tie with local events on
// (when, at) — through ComputeArtifacts serially and at 2 and 4 workers, and
// requires the same result.json bytes. Cut at the trunks, each boundary edge
// of this single-trunk graph at 2 workers is fed by one link, so the
// boundary merge never breaks a tie between two edges. At 8 workers the
// bytes still differ (DESIGN.md §9).
func TestShardedTestbedDocument(t *testing.T) {
	if testing.Short() {
		t.Skip("30 virtual seconds per run")
	}
	raw, err := os.ReadFile(filepath.Join("..", "..", "scenarios", "testbed-fig12.json"))
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) []byte {
		cfg, err := scenario.Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Topology.Workers = workers
		art, err := scenario.ComputeArtifacts(context.Background(), cfg, nil)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		return art[scenario.ArtifactResult]
	}
	want := run(1)
	for _, workers := range []int{2, 4} {
		if got := run(workers); !bytes.Equal(got, want) {
			t.Errorf("workers %d: result.json %x, serial %x", workers, sha256.Sum256(got), sha256.Sum256(want))
		}
	}
}
