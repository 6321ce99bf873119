package netem

// dirs is the number of routable directions: DirForward and DirReverse,
// which index the router's tables at Dir-1.
const dirs = 2

// Router is a store-and-forward node with a per-(flow, direction) forwarding
// table and per-direction default routes, so a single router instance can
// carry both a flow's data packets (forward) and its acknowledgments
// (reverse) over different output links. It forwards with zero processing
// delay; all queueing happens in the output links, which mirrors ns-2's node
// model.
//
// Flow ids are dense and non-negative, so each direction's table is a slice
// indexed by flow id, sized to the largest routed id. A packet whose id has
// no entry — a negative id such as attack traffic's, an id past the table,
// or a hole — takes its direction's default.
//
// A link delivering into a router resolves the output link when it
// schedules the delivery (Link.deliver), so the table is wiring-time
// configuration: once the router has looked up a packet, AddRoute and
// SetDefault panic.
type Router struct {
	name      string
	routes    [dirs][]*Link // [Dir-1][flow]
	defaults  [dirs]*Link   // [Dir-1]
	dropped   uint64
	forwarded bool // a packet has been looked up: the table is frozen
}

var _ Node = (*Router)(nil)

// NewRouter returns an empty router.
func NewRouter(name string) *Router {
	return &Router{name: name}
}

// Name reports the router's diagnostic name.
func (r *Router) Name() string { return r.name }

// AddRoute installs the output link for a specific flow travelling in the
// given direction, overriding the direction's default. A negative flow id or
// an unknown direction, which no packet could ever be routed by, panics.
func (r *Router) AddRoute(flow int, dir Dir, l *Link) {
	r.beforeForwarding("AddRoute")
	t := r.routes[dir-1]
	if flow >= len(t) {
		t = append(t, make([]*Link, flow+1-len(t))...)
		r.routes[dir-1] = t
	}
	t[flow] = l
}

// SetDefault installs the output link used for any flow in the given
// direction that has no specific route.
func (r *Router) SetDefault(dir Dir, l *Link) {
	r.beforeForwarding("SetDefault")
	r.defaults[dir-1] = l
}

// beforeForwarding panics once the router has looked up a packet: a
// delivery scheduled before a table change would already carry the old
// route.
func (r *Router) beforeForwarding(who string) {
	if r.forwarded {
		panic("netem: " + who + " on router " + r.name + " after it forwarded a packet")
	}
}

// Unrouted reports how many packets arrived with no matching route. A
// correctly wired topology keeps this at zero; tests assert on it.
func (r *Router) Unrouted() uint64 { return r.dropped }

// Receive implements Node: look up the output link and forward.
//
//pdos:hotpath
func (r *Router) Receive(p *Packet) {
	if l := r.route(p); l != nil {
		l.Send(p)
		return
	}
	r.dropped++
}

// route returns p's output link, or nil when p is unrouted. Link.deliver
// calls it when it schedules a delivery into the router, while the packet
// is still in cache, and Receive for packets delivered to the router
// itself. The table cannot change once a packet has been looked up
// (beforeForwarding), so a lookup at schedule time finds the link a lookup
// at the delivery instant would.
//
//pdos:hotpath
func (r *Router) route(p *Packet) *Link {
	r.forwarded = true
	// Unsigned compares fold the range checks: Dir(0) wraps past the
	// tables, and a negative flow id wraps past any route table.
	if d := uint(p.Dir) - 1; d < dirs {
		if t := r.routes[d]; uint(p.Flow) < uint(len(t)) {
			if l := t[p.Flow]; l != nil {
				return l
			}
		}
		return r.defaults[d]
	}
	return nil
}

// Sink is a terminal node that counts and discards everything it receives.
// Attack traffic terminates in a Sink; tests use it as a catch-all.
type Sink struct {
	Packets uint64
	Bytes   uint64
}

var _ Node = (*Sink)(nil)

// Receive implements Node. As a terminal node the sink releases pooled
// packets back to their free list.
//
//pdos:hotpath
func (s *Sink) Receive(p *Packet) {
	s.Packets++
	s.Bytes += uint64(p.Size)
	p.Release()
}
