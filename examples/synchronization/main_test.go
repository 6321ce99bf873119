package main

import (
	"testing"

	"pulsedos/internal/pins"
)

// TestStdoutPin holds the example's printed report to its committed digest
// (testdata/stdout.sha256).
func TestStdoutPin(t *testing.T) {
	pins.Load(t, "testdata/stdout.sha256").Check(t, "run", pins.Stdout(t, run))
}
