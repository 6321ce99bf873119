package main

import (
	"io"
	"strings"
	"testing"

	"pulsedos/internal/pins"
)

// TestStdoutPins holds the printed detection table at the flag defaults to
// its committed digest (testdata/stdout.sha256).
func TestStdoutPins(t *testing.T) {
	set := pins.Load(t, "testdata/stdout.sha256")
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	set.Check(t, "default", out.String())
}

func TestRunDetectionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation study")
	}
	err := run([]string{"-flows", "3", "-warmup", "2s", "-measure", "3s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Error("unknown flag accepted")
	}
	// A document reads flows 0 and seed 0 as the kind's defaults.
	if err := run([]string{"-flows", "0"}, io.Discard); err == nil {
		t.Error("zero flows accepted")
	}
	if err := run([]string{"-seed", "0"}, io.Discard); err == nil {
		t.Error("zero seed accepted")
	}
}
