package experiments

import "time"

// Scale trades fidelity for wall-clock time when regenerating figures. Full
// scale matches the paper's snapshot lengths; Quick scale is for CI and
// testing.B benches.
type Scale struct {
	Warmup       time.Duration
	Measure      time.Duration
	SyncDuration time.Duration // Fig. 3 snapshot length (paper: 60 s)
	Gammas       []float64
	FlowCounts   []int // Figs. 6–9 subplot populations (paper: 15,25,35,45)
	ScaleFlows   []int // "scale" figure populations; empty runs none
	Seed         uint64
}

// FullScale mirrors the paper's experiment dimensions.
func FullScale() Scale {
	return Scale{
		Warmup:       10 * time.Second,
		Measure:      30 * time.Second,
		SyncDuration: 60 * time.Second,
		Gammas:       DefaultGammaGrid(),
		FlowCounts:   []int{15, 25, 35, 45},
		ScaleFlows:   []int{100, 1000, 10000},
		Seed:         1,
	}
}

// QuickScale shrinks every dimension for fast regression runs.
func QuickScale() Scale {
	return Scale{
		Warmup:       6 * time.Second,
		Measure:      12 * time.Second,
		SyncDuration: 30 * time.Second,
		Gammas:       CoarseGammaGrid(),
		FlowCounts:   []int{15},
		ScaleFlows:   []int{100, 1000},
		Seed:         1,
	}
}

// FigureResult carries everything one regenerated figure produced: plottable
// series plus human-readable summary rows.
type FigureResult struct {
	ID     string
	Title  string
	Series []Series
	Notes  []string
}
