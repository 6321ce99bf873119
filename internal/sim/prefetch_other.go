//go:build !amd64 && !arm64

package sim

// No prefetch instruction is wired up on this architecture: the drain's
// prefetches compile to nothing (see prefetch.go).

func prefetchEvent(*event) {}

func prefetchFire(Handler, any) {}
