// Package hotpath is a pdos-lint fixture for the hot-path hygiene analyzer:
// each allocation hazard in a //pdos:hotpath function, beside the idioms the
// contract permits and an unannotated function the analyzer must ignore.
package hotpath

import (
	"fmt"
	"unsafe"
)

type ring struct {
	buf []int
}

type event struct {
	fn  func(arg any)
	arg any
}

// FmtCall formats on the hot path.
//
//pdos:hotpath
func FmtCall(n int) {
	fmt.Println("n =", n) // want "fmt.Println call"
}

// Closure constructs a capturing closure per call.
//
//pdos:hotpath
func Closure(run func(func())) {
	run(func() {}) // want "closure literal"
}

// BoxAssign boxes an int into an interface on assignment.
//
//pdos:hotpath
func BoxAssign(ev *event, n int) {
	ev.arg = n // want "boxes non-pointer int"
}

// BoxArg boxes an int into an interface parameter.
//
//pdos:hotpath
func BoxArg(sink func(any), n int) {
	sink(n) // want "boxes non-pointer int"
}

// PointerRidesFree: pointers fit in the interface word without allocating.
//
//pdos:hotpath
func PointerRidesFree(ev *event, r *ring) {
	ev.arg = r
}

// handler mimics sim.Handler; thunk is a func type that implements it, the
// way the kernel adapts At's func() callbacks.
type handler interface{ Fire(arg any) }

type thunk func()

func (f thunk) Fire(any) { f() }

// PointerShapedRideFree: funcs, maps, chans and unsafe.Pointer are one word
// the runtime stores in the interface directly, so converting them does not
// allocate either.
//
//pdos:hotpath
func PointerShapedRideFree(ev *event, fn func(), m map[int]int, c chan int, up unsafe.Pointer, sink func(any), h *handler) {
	*h = thunk(fn)
	ev.arg = fn
	ev.arg = m
	sink(c)
	sink(up)
}

// StructBoxes: a struct value is not pointer-shaped, whether assigned or
// passed; an int converted through a named type still boxes.
//
//pdos:hotpath
func StructBoxes(ev *event, r ring, sink func(any)) {
	ev.arg = r // want "boxes non-pointer fixture/hotpath.ring"
	sink(r)    // want "boxes non-pointer fixture/hotpath.ring"
	type count int
	sink(count(3)) // want "boxes non-pointer"
}

// SelfAppend reuses its backing array — the one permitted append shape.
//
//pdos:hotpath
func SelfAppend(r *ring, v int) {
	r.buf = append(r.buf, v)
}

// ForeignAppend copies into a fresh destination.
//
//pdos:hotpath
func ForeignAppend(r *ring, src []int, v int) {
	r.buf = append(src, v) // want "append into a different destination"
}

// PanicExempt: panic boxes its argument, but a panicking hot path is
// already dead.
//
//pdos:hotpath
func PanicExempt(n int) {
	if n < 0 {
		panic("negative")
	}
}

// ColdFunction is not annotated: nothing here is inspected.
func ColdFunction(n int) {
	fmt.Println(func() int { return n }())
}
