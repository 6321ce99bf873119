package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// Measure declares what a run observes beyond the default delivery account,
// and optionally a sweep axis that expands the document into a family of
// runs. It is the piece that lets a paper figure be written as one scenario
// document: the base Config fixes the environment, the taps name the series
// the figure plots, and the sweep spans the figure's x-axis.
type Measure struct {
	// Taps name the extra series the run captures alongside the delivery
	// account: "cwnd" (congestion-window samples of one victim), "srtt"
	// (per-flow smoothed RTT at run end), "goodput" (per-flow delivered
	// bytes), "queue" (bottleneck queue depth sampled on a fixed bin), and
	// "sync" (PAA-normalized incoming-rate frames with peak statistics).
	Taps []string `json:"taps,omitempty"`

	// CwndFlow selects the victim whose window the "cwnd" tap samples.
	CwndFlow int `json:"cwndFlow,omitempty"`

	// SyncFrames is the PAA frame count for the "sync" tap; 0 derives one
	// frame per 250 ms of the measurement window, the paper's frame size.
	SyncFrames int `json:"syncFrames,omitempty"`

	// QueueBinMs is the sampling interval of the "queue" tap; 0 means 50 ms.
	QueueBinMs float64 `json:"queueBinMs,omitempty"`

	// Sweep expands the document into one run per axis value.
	Sweep *Sweep `json:"sweep,omitempty"`
}

// Sweep spans one figure axis: each value yields an expanded point document
// with the axis field substituted. The point documents — not the sweep
// carrier — are what key the run cache, so re-running a sweep with one new
// value recomputes exactly one point.
type Sweep struct {
	Axis   string    `json:"axis"` // "gamma", "flows", or "attackRateMbps"
	Values []float64 `json:"values"`
}

// Workload replaces the default long-lived-flow population with a structured
// one. Kind "mice" runs the short-flow study: Elephants long-lived flows plus
// Mice Poisson-arriving transfers of MiceSegments segments each.
type Workload struct {
	Kind           string  `json:"kind"` // "mice"
	Elephants      int     `json:"elephants"`
	Mice           int     `json:"mice"`
	MiceSegments   int64   `json:"miceSegments"`
	ArrivalSpanSec float64 `json:"arrivalSpanSec"`
}

// measureTaps is the closed set of tap names, in canonical order.
var measureTaps = []string{"cwnd", "goodput", "queue", "srtt", "sync"}

// sweepAxes is the closed set of sweep axes.
var sweepAxes = []string{"gamma", "flows", "attackRateMbps"}

// defaultQueueBinMs is the "queue" tap's sampling interval when unset.
const defaultQueueBinMs = 50

// defaultSyncFrameSec is the paper's PAA frame width: one frame per 250 ms.
const defaultSyncFrameSec = 0.25

func validTap(name string) bool {
	for _, t := range measureTaps {
		if t == name {
			return true
		}
	}
	return false
}

// HasTap reports whether the measure block requests the named tap.
func (m *Measure) HasTap(name string) bool {
	if m == nil {
		return false
	}
	for _, t := range m.Taps {
		if t == name {
			return true
		}
	}
	return false
}

// syncFrames resolves the "sync" tap's frame count against the measurement
// window: explicit when set, else one frame per 250 ms.
func (m *Measure) syncFrames(measureSec float64) int {
	if m.SyncFrames > 0 {
		return m.SyncFrames
	}
	return int(measureSec / defaultSyncFrameSec)
}

// queueBinMs resolves the "queue" tap's sampling interval.
func (m *Measure) queueBinMs() float64 {
	if m.QueueBinMs > 0 {
		return m.QueueBinMs
	}
	return defaultQueueBinMs
}

// validateMeasure checks the measure block against the rest of the document.
func (c Config) validateMeasure() error {
	m := c.Measure
	if m == nil {
		return nil
	}
	seen := map[string]bool{}
	for _, t := range m.Taps {
		if !validTap(t) {
			return fmt.Errorf("scenario: measure tap %q (want cwnd, goodput, queue, srtt, or sync)", t)
		}
		if seen[t] {
			return fmt.Errorf("scenario: measure tap %q repeated", t)
		}
		seen[t] = true
	}
	if m.CwndFlow < 0 {
		return errors.New("scenario: negative cwndFlow")
	}
	if m.SyncFrames < 0 {
		return errors.New("scenario: negative syncFrames")
	}
	if (seen["cwnd"] || seen["queue"]) && c.Topology.Workers > 1 {
		return errors.New("scenario: cwnd and queue taps run serial (workers must be 0 or 1)")
	}
	if seen["sync"] {
		if c.RateBinMs <= 0 {
			return errors.New("scenario: sync tap needs rateBinMs")
		}
		if m.syncFrames(c.MeasureSec) < 2 {
			return errors.New("scenario: sync tap needs at least 2 frames")
		}
	}
	if c.Workload != nil && len(m.Taps) > 0 {
		return errors.New("scenario: mice workload does not support measure taps")
	}
	return c.validateSweep()
}

// validateSweep checks the sweep axis against the fields it substitutes.
func (c Config) validateSweep() error {
	sw := c.Measure.Sweep
	if sw == nil {
		return nil
	}
	if sw.Axis == "" {
		return errors.New("scenario: sweep needs an axis")
	}
	if c.Workload != nil {
		return errors.New("scenario: mice workload does not support a sweep")
	}
	switch sw.Axis {
	case "gamma":
		if c.Attack == nil {
			return errors.New("scenario: gamma sweep needs an attack")
		}
		if c.Attack.Gamma != 0 || c.Attack.PeriodMs != 0 {
			return errors.New("scenario: gamma sweep conflicts with attack gamma/periodMs — leave both zero")
		}
		if len(sw.Values) == 0 {
			return fmt.Errorf("scenario: sweep axis %q has no values", sw.Axis)
		}
		for _, v := range sw.Values {
			if v <= 0 || v >= 1 {
				return fmt.Errorf("scenario: sweep gamma %g outside (0,1)", v)
			}
		}
	case "flows":
		if c.Topology.Kind == "graph" {
			return errors.New(`scenario: flows sweep on topology kind "graph" — no flows field to sweep`)
		}
		if len(sw.Values) == 0 {
			return fmt.Errorf("scenario: sweep axis %q has no values", sw.Axis)
		}
		for _, v := range sw.Values {
			if v < 1 || v != float64(int(v)) {
				return fmt.Errorf("scenario: sweep flows value %g is not a positive integer", v)
			}
		}
	case "attackRateMbps":
		if c.Attack == nil {
			return errors.New("scenario: attackRateMbps sweep needs an attack")
		}
		if c.Attack.RateMbps != 0 {
			return errors.New("scenario: attackRateMbps sweep conflicts with attack rateMbps — leave it zero")
		}
		if len(sw.Values) == 0 {
			return fmt.Errorf("scenario: sweep axis %q has no values", sw.Axis)
		}
		for _, v := range sw.Values {
			if v <= 0 {
				return fmt.Errorf("scenario: sweep attackRateMbps %g must be positive", v)
			}
			if err := checkMbps(v, "sweep attackRateMbps"); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("scenario: sweep axis %q (want gamma, flows, or attackRateMbps)", sw.Axis)
	}
	return nil
}

// validateWorkload checks the structured-workload block.
func (c Config) validateWorkload() error {
	w := c.Workload
	if w == nil {
		return nil
	}
	if w.Kind != "mice" {
		return fmt.Errorf("scenario: workload kind %q (want mice)", w.Kind)
	}
	if c.Topology.Kind != "dumbbell" {
		return errors.New(`scenario: mice workload needs topology kind "dumbbell"`)
	}
	if c.Topology.Workers > 1 {
		return errors.New("scenario: mice workload runs serial (workers must be 0 or 1)")
	}
	switch {
	case w.Elephants < 1:
		return errors.New("scenario: mice workload needs elephants >= 1")
	case w.Mice < 1:
		return errors.New("scenario: mice workload needs mice >= 1")
	case w.MiceSegments < 1:
		return errors.New("scenario: mice workload needs miceSegments >= 1")
	case w.ArrivalSpanSec <= 0:
		return errors.New("scenario: mice workload needs arrivalSpanSec")
	}
	if c.Topology.Flows != w.Elephants+w.Mice {
		return fmt.Errorf("scenario: mice workload needs topology flows = elephants + mice (%d)",
			w.Elephants+w.Mice)
	}
	if c.RateBinMs > 0 || c.Jitter {
		return errors.New("scenario: mice workload does not support rateBinMs or measureJitter")
	}
	return nil
}

// Sweeps reports whether the document carries a sweep and must be expanded
// before it can run.
func (c Config) Sweeps() bool {
	return c.Measure != nil && c.Measure.Sweep != nil
}

// Expand resolves the document into its runnable point configs: one per
// sweep value (in declaration order), or the document itself when no sweep
// is present. Each point carries the axis value substituted into the swept
// field, the sweep stripped, and — when named — a "name/axis=value" label.
// Points revalidate, so an expanded document can be submitted anywhere a
// plain one can.
func (c Config) Expand() ([]Config, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if !c.Sweeps() {
		return []Config{c}, nil
	}
	sw := *c.Measure.Sweep
	points := make([]Config, 0, len(sw.Values))
	for _, v := range sw.Values {
		pt := c
		m := *c.Measure
		m.Sweep = nil
		if len(m.Taps) == 0 && m.CwndFlow == 0 && m.SyncFrames == 0 && m.QueueBinMs == 0 {
			pt.Measure = nil
		} else {
			pt.Measure = &m
		}
		switch sw.Axis {
		case "gamma":
			a := *c.Attack
			a.Gamma = v
			pt.Attack = &a
		case "flows":
			pt.Topology.Flows = int(v)
		case "attackRateMbps":
			a := *c.Attack
			a.RateMbps = v
			pt.Attack = &a
		}
		if pt.Name != "" {
			pt.Name = pt.Name + "/" + sw.Axis + "=" + strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := pt.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: sweep %s=%g: %w", sw.Axis, v, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

// canonicalMeasure is the normalized measure block: taps sorted and the taps'
// operational defaults materialized, knobs belonging to absent taps zeroed so
// stray values in a hand-edited document cannot split the cache. A measure
// block that normalizes to nothing (no taps, no sweep) canonicalizes away
// entirely, so `"measure": {}` aliases the plain document.
type canonicalMeasure struct {
	Taps       []string `json:"taps"`
	CwndFlow   int      `json:"cwndFlow"`
	SyncFrames int      `json:"syncFrames"`
	QueueBinMs float64  `json:"queueBinMs"`
	Sweep      *Sweep   `json:"sweep,omitempty"`
}

// canonicalizeMeasure normalizes the measure block; nil when it is inert.
func (c Config) canonicalizeMeasure() *canonicalMeasure {
	m := c.Measure
	if m == nil {
		return nil
	}
	out := &canonicalMeasure{Sweep: m.Sweep}
	out.Taps = append([]string{}, m.Taps...)
	sort.Strings(out.Taps)
	if m.HasTap("cwnd") {
		out.CwndFlow = m.CwndFlow
	}
	if m.HasTap("sync") {
		out.SyncFrames = m.syncFrames(c.MeasureSec)
	}
	if m.HasTap("queue") {
		out.QueueBinMs = m.queueBinMs()
	}
	if len(out.Taps) == 0 && out.Sweep == nil {
		return nil
	}
	return out
}

// canonicalWorkload is the normalized workload block. All fields are
// required by validation, so nothing needs materializing.
type canonicalWorkload struct {
	Kind           string  `json:"kind"`
	Elephants      int     `json:"elephants"`
	Mice           int     `json:"mice"`
	MiceSegments   int64   `json:"miceSegments"`
	ArrivalSpanSec float64 `json:"arrivalSpanSec"`
}

func (c Config) canonicalizeWorkload() *canonicalWorkload {
	w := c.Workload
	if w == nil {
		return nil
	}
	return &canonicalWorkload{
		Kind:           w.Kind,
		Elephants:      w.Elephants,
		Mice:           w.Mice,
		MiceSegments:   w.MiceSegments,
		ArrivalSpanSec: w.ArrivalSpanSec,
	}
}
