package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tinySize runs every workload's code at a size a unit test affords: 200
// flows over 1 virtual second, one QuickScale figure, 20 serve requests per
// phase.
var tinySize = sizes{
	attackFlows:      200,
	attackWarmupSec:  0.5,
	attackMeasureSec: 0.5,
	attackCached:     2,
	figuresWarm:      1,
	figureIDs:        []string{"fig2"},
	serveRequests:    20,
	serveRestart:     4,
	setupReps:        2,
	referenceEvents:  20000,
}

// TestMain lets the test binary serve as its own calibration child.
func TestMain(m *testing.M) {
	if runKernelIfAsked() {
		return
	}
	os.Exit(m.Run())
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T, root string) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSpecMatchesBenchmark pins BENCHMARK.json to the workloads and metric
// tables the program implements.
func TestSpecMatchesBenchmark(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	s := readSpec(t, root)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(s.Workloads), len(workloads))
	}
	for i, w := range s.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		what  string
		spec  []specMetric
		table []metricSpec
	}{{"end_to_end", s.EndToEnd, endToEnd}, {"per_layer", s.PerLayer, perLayer}} {
		if len(c.spec) != len(c.table) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark %d", c.what, len(c.spec), len(c.table))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.table[i].name || m.Unit != c.table[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], benchmark %s [%s]", c.what, i, m.Name, m.Unit, c.table[i].name, c.table[i].unit)
			}
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload at tinySize, untraced
// and traced, through the code the full-size runs use: every declared metric
// must be emitted with its unit, no operation or check may fail (that
// includes traced bytes equalling untraced bytes, hits equalling computes,
// and the sharded run equalling the serial one), and the summary line must
// be the last line printed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	s := readSpec(t, root)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests map[string]string
			for _, traced := range []bool{false, true} {
				res, _, err := execute(w, root, t.TempDir(), 1, 0, traced, tinySize, false)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("traced=%v: %d of %d failed: %v", traced, res.Failed, res.Attempted, res.Errors)
				}
				want := s.EndToEnd
				if traced {
					want = s.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("traced=%v: %d metrics emitted, %d declared", traced, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("traced=%v: metric %s = %+v (present %v), want unit %s", traced, m.Name, got, ok, m.Unit)
					}
				}
				if digests == nil {
					digests = res.Digests
				} else if len(digests) != len(res.Digests) {
					t.Errorf("digest sets differ: untraced %v, traced %v", digests, res.Digests)
				} else {
					for k, v := range digests {
						if res.Digests[k] != v {
							t.Errorf("digest %s: untraced %s, traced %s", k, v, res.Digests[k])
						}
					}
				}

				var out bytes.Buffer
				if err := report(&out, res); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var summary map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &summary); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
					if _, ok := summary[k]; !ok {
						t.Errorf("summary lacks %q", k)
					}
				}
				if len(summary) != 4 {
					t.Errorf("summary has %d keys, want 4", len(summary))
				}
			}
		})
	}
}
