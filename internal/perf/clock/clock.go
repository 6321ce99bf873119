// Package clock is the repository's single sanctioned wall-clock seam. The
// deterministic simulation packages are provably clock-free — pdos-lint's
// determinism analyzer forbids time.Now/Since/Until there — and the few
// places that legitimately measure wall time (run-cache and pdos-serve
// bookkeeping) read it through Wall,
// annotating the call site //pdos:wallclock. The analyzer treats this
// package's readers exactly like time.Now, so every wall-clock dependency in
// the simulator stays greppable from one seam.
package clock

import "time"

// Clock reads the process wall clock. It is a plain struct, not an
// interface: determinism inside the simulator comes from virtual sim.Time,
// and the wall clock is only ever observed for perf measurement, so there is
// nothing to fake.
type Clock struct{}

// Wall is the seam instance every wall-clock read goes through.
var Wall Clock

// Now reports the current wall-clock time.
func (Clock) Now() time.Time {
	return time.Now() //pdos:wallclock — the seam itself
}

// Since reports the wall time elapsed since t.
func (Clock) Since(t time.Time) time.Duration {
	return time.Since(t) //pdos:wallclock — the seam itself
}
