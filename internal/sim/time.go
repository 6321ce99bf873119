// Package sim implements the discrete-event simulation kernel that underpins
// every other subsystem in pulsedos: the network emulator, the TCP stack, the
// attack traffic generators, and the Dummynet test-bed emulation all advance
// a shared virtual clock owned by a Kernel.
//
// The kernel is strictly single-threaded and deterministic: events scheduled
// at the same instant fire in scheduling order, and a scenario driven from a
// fixed RNG seed reproduces byte-identical results on every run.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is an instant of virtual simulation time, measured in nanoseconds
// since the start of the simulation. It is deliberately distinct from
// time.Time: virtual time has no calendar, no time zone, and no relation to
// the wall clock.
type Time int64

// MaxTime is the last representable virtual instant (~292 virtual years).
// Kernel.AfterTicks saturates to it instead of wrapping negative.
const MaxTime Time = math.MaxInt64

// minTime is the first representable instant. It sorts before every
// schedule stamp, so RunBefore leaves it as the position's stamp.
const minTime Time = math.MinInt64

// Common virtual-time unit spans, expressed as Time deltas.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// FromDuration converts a wall-clock duration into a virtual-time delta.
func FromDuration(d time.Duration) Time {
	return Time(d.Nanoseconds())
}

// FromSeconds converts a floating-point number of seconds into virtual time,
// rounding to the nearest nanosecond.
func FromSeconds(s float64) Time {
	//pdos:vtime-ok — this IS the sanctioned float→stamp seam the vtime analyzer points callers at
	return Time(s * float64(Second))
}

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 {
	return float64(t) / float64(Second)
}

// Duration reports t as a time.Duration measured from the simulation origin.
func (t Time) Duration() time.Duration {
	return time.Duration(t)
}

// Add returns t shifted by the given delta.
func (t Time) Add(d Time) Time {
	return t + d
}

// Sub returns the delta t - u.
func (t Time) Sub(u Time) Time {
	return t - u
}

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant with full nanosecond precision, e.g. "1.25s".
func (t Time) String() string {
	return fmt.Sprintf("%gs", t.Seconds())
}
