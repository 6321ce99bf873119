// Command compare applies the benchmark's acceptance rules to two directories
// of results written by the benchmark's -out flag, the parent commit's (OLD)
// and a change's (NEW):
//
//	cd benchmark && go run ./compare OLD_DIR NEW_DIR
//
// For every workload × end-to-end metric it prints both sides' median and
// quartiles, the share of seed-paired runs the change won, the metric's
// bound, and one verdict: improved (won at least 9 in 10 pairs and moved the
// median by more than the old quartile spread), regressed (median worse by
// more than the bound), unresolved (the old runs spread wider than the bound,
// or too few runs) or unchanged. Per-layer count metrics from traced runs are
// compared exactly, seed by seed. Every ratio is printed with its base. The
// exit status is 1 when any cell regressed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the part of a benchmark result file compare reads.
type result struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Trace    bool              `json:"trace"`
	Metrics  map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "BENCHMARK.json (default: the nearest one from the working directory up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] OLD_DIR NEW_DIR")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	old, err := loadResults(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	cur, err := loadResults(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if report(stdout, sp, old, cur) {
		return 1
	}
	return 0
}

func loadSpec(path string) (spec, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return spec{}, err
		}
		for {
			p := filepath.Join(dir, "BENCHMARK.json")
			if _, err := os.Stat(p); err == nil {
				path = p
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return spec{}, errors.New("no BENCHMARK.json found; pass -spec")
			}
			dir = parent
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec{}, err
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loadResults reads every result file in dir, sorted by seed.
func loadResults(dir string) ([]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []result
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(raw, &r); err != nil || r.Workload == "" {
			continue // not a result file
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out, nil
}

// values lists one metric of one workload's runs, in seed order.
func values(rs []result, workload string, traced bool, name string) (vals []float64, seeds []int64) {
	for _, r := range rs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
			seeds = append(seeds, r.Seed)
		}
	}
	return vals, seeds
}

// quartiles matches Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), which the benchmark's acceptance rule is stated in.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	q := make([]float64, 3)
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// cell is one workload × metric comparison.
type cell struct {
	oldQ, newQ [3]float64
	wins, n    int
	verdict    string
}

// judge applies the rules in the package comment. lower tells which
// direction is better.
func judge(old, cur []float64, lower bool, bound float64) cell {
	var c cell
	if len(old) < 2 || len(cur) < 2 {
		c.verdict = "unresolved"
		return c
	}
	c.oldQ[0], c.oldQ[1], c.oldQ[2] = quartiles(old)
	c.newQ[0], c.newQ[1], c.newQ[2] = quartiles(cur)
	better := func(a, b float64) bool { // a better than b
		if lower {
			return a < b
		}
		return a > b
	}
	c.n = min(len(old), len(cur))
	for i := 0; i < c.n; i++ {
		if better(cur[i], old[i]) {
			c.wins++
		}
	}
	allBetter := true
	for _, n := range cur {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	oldMed, newMed := c.oldQ[1], c.newQ[1]
	spread := c.oldQ[2] - c.oldQ[0]
	switch {
	case better(newMed, oldMed) && 10*c.wins >= 9*c.n && math.Abs(newMed-oldMed) > spread:
		c.verdict = "improved"
	case spread > bound*math.Abs(oldMed):
		if allBetter {
			c.verdict = "improved"
		} else {
			c.verdict = "unresolved"
		}
	case better(oldMed, newMed) && math.Abs(newMed-oldMed) > bound*math.Abs(oldMed):
		c.verdict = "regressed"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// report prints the comparison and reports whether any cell regressed.
func report(w io.Writer, sp spec, old, cur []result) bool {
	workloads := map[string]bool{}
	for _, r := range append(append([]result(nil), old...), cur...) {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	regressed := false
	fmt.Fprintf(w, "%-14s %-13s %-36s %-36s %-26s %-11s %-6s %s\n",
		"workload", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "change (of old median)", "pairs won", "bound", "verdict")
	for _, wl := range names {
		for _, m := range sp.EndToEnd {
			o, _ := values(old, wl, false, m.Name)
			n, _ := values(cur, wl, false, m.Name)
			if len(o) == 0 && len(n) == 0 {
				continue
			}
			c := judge(o, n, m.Better == "lower", m.Bound)
			if c.verdict == "regressed" {
				regressed = true
			}
			change := "-"
			if len(o) >= 2 && len(n) >= 2 && c.oldQ[1] != 0 {
				change = fmt.Sprintf("%+.1f%% of %s %s", 100*(c.newQ[1]-c.oldQ[1])/c.oldQ[1], num(c.oldQ[1]), m.Unit)
			}
			fmt.Fprintf(w, "%-14s %-13s %-36s %-36s %-26s %-11s %-6s %s\n", wl, m.Name,
				side(c.oldQ, len(o)), side(c.newQ, len(n)), change,
				fmt.Sprintf("%d/%d", c.wins, c.n), fmt.Sprintf("%.0f%%", 100*m.Bound), c.verdict)
		}
	}

	fmt.Fprintln(w, "\nper-layer counts (traced runs, compared exactly per seed):")
	for _, wl := range names {
		var same, differ []string
		for _, m := range sp.PerLayer {
			if m.Unit != "count" {
				continue
			}
			o, oldSeeds := values(old, wl, true, m.Name)
			n, newSeeds := values(cur, wl, true, m.Name)
			byseed := map[int64]float64{}
			for i, s := range oldSeeds {
				byseed[s] = o[i]
			}
			compared, diffs := 0, []string{}
			for i, s := range newSeeds {
				if ov, ok := byseed[s]; ok {
					compared++
					if ov != n[i] {
						diffs = append(diffs, fmt.Sprintf("seed %d: %s → %s", s, num(ov), num(n[i])))
					}
				}
			}
			switch {
			case compared == 0:
			case len(diffs) == 0:
				same = append(same, m.Name)
			default:
				differ = append(differ, m.Name+" ("+strings.Join(diffs, "; ")+")")
			}
		}
		if len(same)+len(differ) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s: %d identical", wl, len(same))
		if len(differ) > 0 {
			fmt.Fprintf(w, ", %d differ: %s", len(differ), strings.Join(differ, ", "))
		}
		fmt.Fprintln(w)
	}
	return regressed
}

func side(q [3]float64, n int) string {
	if n < 2 {
		return fmt.Sprintf("too few runs (%d)", n)
	}
	return fmt.Sprintf("%s [%s, %s] (%d)", num(q[1]), num(q[0]), num(q[2]), n)
}

func num(v float64) string { return fmt.Sprintf("%.4g", v) }
