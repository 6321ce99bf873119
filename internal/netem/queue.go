package netem

import "pulsedos/internal/sim"

// Queue is a drop-decision discipline guarding a link's transmission buffer.
// Enqueue reports false when the discipline drops the arriving packet; the
// caller (the Link) owns drop accounting.
type Queue interface {
	// Enqueue offers p to the queue at virtual instant now and reports
	// whether it was accepted.
	Enqueue(p *Packet, now sim.Time) bool
	// Dequeue removes and returns the head-of-line packet, or nil when the
	// queue is empty.
	Dequeue(now sim.Time) *Packet
	// Peek returns the head-of-line packet without removing it, or nil when
	// the queue is empty.
	Peek() *Packet
	// Len reports the number of queued packets.
	Len() int
	// Bytes reports the number of queued bytes.
	Bytes() int
}

// DropTail is the classic FIFO tail-drop queue: arrivals are accepted until
// the packet limit is reached, then dropped.
//
// The packets sit in a ring whose size is a power of two. It is allocated
// by the first packet that has to wait and doubles only when full, so it
// never holds more than twice the queue's peak occupancy, and a link whose
// packets all find the transmitter idle (Link.Send's idle bypass) never
// allocates one.
type DropTail struct {
	limit int       // capacity in packets
	ring  []*Packet // nil until the first Enqueue; len is a power of two
	head  int       // ring index of the head-of-line packet
	n     int       // queued packets
	bytes int
}

var _ Queue = (*DropTail)(nil)

// NewDropTail returns a tail-drop queue holding at most limit packets.
// Non-positive limits are treated as a single-packet buffer.
func NewDropTail(limit int) *DropTail {
	if limit < 1 {
		limit = 1
	}
	return &DropTail{limit: limit}
}

// Enqueue implements Queue.
//
//pdos:hotpath
func (q *DropTail) Enqueue(p *Packet, _ sim.Time) bool {
	if q.n >= q.limit {
		return false
	}
	if q.n == len(q.ring) {
		q.grow()
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = p
	q.n++
	q.bytes += p.Size
	return true
}

// grow doubles the full ring (a fresh queue starts at one slot), unwrapping
// the queued packets to its front in FIFO order.
func (q *DropTail) grow() {
	ring := make([]*Packet, max(2*len(q.ring), 1))
	n := copy(ring, q.ring[q.head:])
	copy(ring[n:], q.ring[:q.head])
	q.ring, q.head = ring, 0
}

// Dequeue implements Queue.
//
//pdos:hotpath
func (q *DropTail) Dequeue(_ sim.Time) *Packet {
	if q.n == 0 {
		return nil
	}
	p := q.ring[q.head]
	q.ring[q.head] = nil
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.bytes -= p.Size
	return p
}

// Peek implements Queue.
//
//pdos:hotpath
func (q *DropTail) Peek() *Packet {
	if q.n == 0 {
		return nil
	}
	return q.ring[q.head]
}

// Len implements Queue.
func (q *DropTail) Len() int { return q.n }

// Bytes implements Queue.
func (q *DropTail) Bytes() int { return q.bytes }

// Limit reports the queue's packet capacity.
func (q *DropTail) Limit() int { return q.limit }
