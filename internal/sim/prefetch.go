//go:build amd64 || arm64

package sim

// The level-0 drain (Kernel.fillRun) knows, before any of them fires, the
// address of every event in a due slot and — once it has loaded an event —
// of the component and argument that event's fire will load first. These
// functions turn that knowledge into software prefetches (PREFETCHT0 on
// amd64, PRFM PLDL1KEEP on arm64), so the misses of the next few fires
// overlap instead of following one another. A prefetch changes no value the
// program computes, and it never faults, whatever the address; other
// architectures get the no-op twins in prefetch_other.go.

// prefetchEvent starts loading ev's cache line (an event is one line).
//
//go:noescape
func prefetchEvent(ev *event)

// prefetchFire starts loading the first cache line behind h's and arg's data
// words: the component the event fires (a link, a flow table, a macroflow)
// and its argument (a packet).
//
//go:noescape
func prefetchFire(h Handler, arg any)
