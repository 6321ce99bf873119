//go:build !pdosassert

package netem

import (
	"testing"
	"unsafe"
)

// TestPacketSize pins Packet to one 64-byte cache line (DESIGN.md §7): a
// hop loads Dir, Flow and Size from it, and an 80-byte packet straddles two
// lines for most of its size class. Adding a field is a layout decision;
// fit it into the last word's padding or shrink something else first.
// pdosassert builds add ownership state (today it fits the same padding)
// and are not pinned.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 64 {
		t.Fatalf("Packet is %d bytes, want exactly 64 (one cache line)", got)
	}
}
