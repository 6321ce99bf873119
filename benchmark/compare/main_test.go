package main

import "testing"

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), e.g. [2.75, 5.5, 8.25] for 1..10.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.data)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, c := range []struct {
		name string
		old  []float64
		new  []float64
		want string
	}{
		{"same runs", base, base, "unchanged"},
		{"10% faster", base, shift(-10), "improved"},
		{"20% slower", base, shift(20), "regressed"},
		{"5% slower, inside the bound", base, shift(5), "unchanged"},
		{"old spread wider than the bound", []float64{50, 150, 60, 140, 100, 55, 145}, shift(0), "unresolved"},
		{"one run a side", []float64{100}, []float64{90}, "unresolved"},
	} {
		if got := judge(c.old, c.new, true, 0.1).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
