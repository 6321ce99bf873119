package trace

import (
	"io"
	"strconv"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
)

// EventKind is the packet event recorded by an EventTrace.
type EventKind byte

// Event kinds, using ns-2 trace-file mnemonics: '+' enqueue, 'd' drop,
// '-' dequeue (transmission complete).
const (
	EventEnqueue EventKind = '+'
	EventDrop    EventKind = 'd'
	EventDequeue EventKind = '-'
)

// EventTrace streams packet events on a link to a writer in ns-2 trace-file
// style, one line per event:
//
//	<kind> <time> <link> <class> <flow> <seq> <size>
//
// e.g. "+ 1.234567 bottleneck-fwd data 3 1024 1040". It records dequeues,
// so it is a netem.DepartureTap: attach it before traffic starts, and the
// link reports each dequeue from its fused chain event at the instant the
// golden schedule would.
type EventTrace struct {
	link  string
	w     io.Writer
	errs  int
	start sim.Time
	line  []byte // reused line buffer
}

var _ netem.DepartureTap = (*EventTrace)(nil)

// NewEventTrace creates a trace of the named link that writes to w.
func NewEventTrace(link string, w io.Writer) *EventTrace {
	return &EventTrace{link: link, w: w}
}

// SetStart discards events before t.
func (et *EventTrace) SetStart(t sim.Time) { et.start = t }

// WriteErrors reports how many stream writes failed (the trace keeps going).
func (et *EventTrace) WriteErrors() int { return et.errs }

// OnArrive implements netem.Tap.
func (et *EventTrace) OnArrive(p *netem.Packet, now sim.Time) {
	et.record(EventEnqueue, p, now)
}

// OnDrop implements netem.Tap.
func (et *EventTrace) OnDrop(p *netem.Packet, now sim.Time) {
	et.record(EventDrop, p, now)
}

// OnDepart implements netem.DepartureTap.
func (et *EventTrace) OnDepart(p *netem.Packet, now sim.Time) {
	et.record(EventDequeue, p, now)
}

func (et *EventTrace) record(kind EventKind, p *netem.Packet, now sim.Time) {
	if now < et.start {
		return
	}
	b := append(et.line[:0], byte(kind), ' ')
	b = strconv.AppendFloat(b, now.Seconds(), 'f', 6, 64)
	b = append(append(b, ' '), et.link...)
	b = append(append(b, ' '), p.Class.String()...)
	b = strconv.AppendInt(append(b, ' '), int64(p.Flow), 10)
	b = strconv.AppendInt(append(b, ' '), p.Seq, 10)
	b = strconv.AppendInt(append(b, ' '), int64(p.Size), 10)
	et.line = append(b, '\n')
	if _, err := et.w.Write(et.line); err != nil {
		et.errs++
	}
}
