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
type Router struct {
	name     string
	routes   [dirs][]*Link // [Dir-1][flow]
	defaults [dirs]*Link   // [Dir-1]
	dropped  uint64
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
	r.defaults[dir-1] = l
}

// Unrouted reports how many packets arrived with no matching route. A
// correctly wired topology keeps this at zero; tests assert on it.
func (r *Router) Unrouted() uint64 { return r.dropped }

// Receive implements Node: look up the output link and forward.
//
//pdos:hotpath
func (r *Router) Receive(p *Packet) {
	// Unsigned compares fold the range checks: Dir(0) wraps past the
	// tables, and a negative flow id wraps past any route table.
	if d := uint(p.Dir) - 1; d < dirs {
		if t := r.routes[d]; uint(p.Flow) < uint(len(t)) {
			if l := t[p.Flow]; l != nil {
				l.Send(p)
				return
			}
		}
		if l := r.defaults[d]; l != nil {
			l.Send(p)
			return
		}
	}
	r.dropped++
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
