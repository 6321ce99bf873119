package main

import (
	"bufio"
	"bytes"
	"strings"
	"testing"

	"pulsedos/internal/pins"
)

// TestStdoutPins holds the emitted trace and the stderr summary to their
// committed digests (testdata/stdout.sha256): the flag defaults, and a
// shorter three-flow run. Every pin names a case and every case has a pin.
func TestStdoutPins(t *testing.T) {
	set := pins.Load(t, "testdata/stdout.sha256")
	cases := map[string][]string{
		"default": nil,
		"flows=3": {"-flows", "3", "-warmup", "2s", "-measure", "1s"},
	}
	for name := range set.Sums {
		if _, ok := cases[name]; !ok {
			t.Errorf("pin %s names no case", name)
		}
	}
	for name, args := range cases {
		t.Run(name, func(t *testing.T) {
			var out, errOut strings.Builder
			if err := run(args, &out, &errOut); err != nil {
				t.Fatal(err)
			}
			set.Check(t, name, out.String()+errOut.String())
		})
	}
}

func TestRunEmitsTraceLines(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-flows", "3", "-warmup", "2s", "-measure", "1s"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		line := sc.Text()
		lines++
		switch line[0] {
		case '+', '-', 'd':
		default:
			t.Fatalf("bad trace line: %q", line)
		}
		if !strings.Contains(line, "bottleneck-fwd") {
			t.Fatalf("line missing link name: %q", line)
		}
	}
	if lines < 100 {
		t.Errorf("trace emitted only %d lines", lines)
	}
	if !strings.Contains(errOut.String(), "victim bytes delivered") {
		t.Errorf("summary missing: %q", errOut.String())
	}
}

func TestRunUnreachableGamma(t *testing.T) {
	var out, errOut bytes.Buffer
	// 16 Mbps pulses cannot reach gamma 0.99 over a 15 Mbps bottleneck.
	err := run([]string{"-rate", "10e6", "-gamma", "0.9", "-measure", "1s"}, &out, &errOut)
	if err == nil {
		t.Error("unreachable gamma accepted")
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-flows", "nope"}, nil, nil); err == nil {
		t.Error("bad flag accepted")
	}
}
