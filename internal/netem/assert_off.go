//go:build !pdosassert

package netem

// Normal builds: the packet assertion state is zero-size and the hooks are
// inlinable no-ops. See assert.go for the armed versions.

// AssertsEnabled reports whether this binary was built with -tags pdosassert.
const AssertsEnabled = false

type packetAsserts struct{}

func (p *Packet) assertGet() {}

func (p *Packet) assertRelease() {}

func (p *Packet) assertDetachedRelease() {}

func (l *Link) assertChainHead(head, p *Packet) {}
