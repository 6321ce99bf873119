//go:build pdosassert

package netem

// Runtime half of the pool-ownership enforcement (DESIGN.md §10), armed by
// -tags pdosassert and compiled out of normal builds (see assert_off.go).
// The static analyzer (internal/lint, poolowner) catches function-local
// ownership bugs at build time; these hooks catch the cross-function ones —
// a packet released twice along two different paths — at run time.

// AssertsEnabled reports whether this binary was built with -tags pdosassert.
const AssertsEnabled = true

// packetAsserts tags pool-built packets so a second Release — which the
// production guard silently absorbs via the pool-detach — becomes a loud
// failure under -tags pdosassert. A double release is never benign: the
// first Release may already have re-issued the struct to an unrelated flow,
// and the second corrupts that flow's packet.
type packetAsserts struct {
	pooled   bool // built by PacketPool.Get (not a plain literal)
	released bool // Release has run at least once
}

// assertGet re-arms the tag when the pool issues the packet.
func (p *Packet) assertGet() {
	p.asserts = packetAsserts{pooled: true}
}

// assertRelease records the first Release of a pool-built packet.
func (p *Packet) assertRelease() {
	p.asserts.released = true
}

// assertDetachedRelease fires on Release of a packet with no pool binding:
// harmless for literal packets, a double release for pool-built ones.
func (p *Packet) assertDetachedRelease() {
	if p.asserts.pooled && p.asserts.released {
		panic("netem: pdosassert: double release of a pooled packet — the first Release may already have re-issued it to another flow")
	}
}

// assertChainHead checks that a chain event's packet — the queue's head when
// the chain was armed — is the packet its restart dequeued. A FIFO's head
// leaves only through the chain, so anything else means a packet left the
// queue by another path while a chain was armed.
func (l *Link) assertChainHead(head, p *Packet) {
	if head != nil && head != p {
		panic("netem: pdosassert: link " + l.name + "'s chain restart dequeued a packet other than the head it was armed with")
	}
}
