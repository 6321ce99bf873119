package sim

import (
	"testing"
	"unsafe"
)

// TestEventSize pins event to one 64-byte cache line (DESIGN.md §8): a
// drain loads the handler and the argument from it, and the run's head check
// and the fire load the index and the key from the line the drain already
// brought in. Adding a field
// is a layout decision; take its bits from index or gen, or shrink
// something else first.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 64 {
		t.Fatalf("event is %d bytes, want exactly 64 (one cache line)", got)
	}
}
