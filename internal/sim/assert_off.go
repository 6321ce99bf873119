//go:build !pdosassert

package sim

// Normal builds: the assertion layer vanishes — the embedded state is
// zero-size and every hook is an inlinable no-op. See assert.go for the
// armed versions and DESIGN.md §10 for the invariant catalog.

// AssertsEnabled reports whether this binary was built with -tags pdosassert.
const AssertsEnabled = false

type kernelAsserts struct{}

func (k *Kernel) assertFire(ev *event) {}

func (k *Kernel) assertWheel() {}

type shardAsserts struct{}

func (s *Shard) assertSent() {}

func (s *Shard) assertInjected() {}

func (e *Engine) assertConserved() {}
