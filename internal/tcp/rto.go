package tcp

import (
	"time"

	"pulsedos/internal/sim"
)

// RFC 6298 retransmission-timeout estimation with exponential backoff and
// Karn's algorithm (the caller refuses samples from retransmitted segments).
// The estimator state lives in the flow's hot record — srtt, rttvar, rtoBase,
// rtoBackoff — so the per-ACK sample fold touches the same cache line as the
// rest of the flow's hot state.
//
// Timer scheduling is the epoch-batched RTO wheel. The old scheme kept one
// lazily re-armed kernel timer per flow, so a million-flow table meant a
// million pending kernel events. The wheel replaces them with:
//
//   - a bucket ring indexed by coarse epoch (2^25 ns ≈ 33.6 ms per epoch);
//     enrolling a deadline links the slot into the bucket of the deadline's
//     epoch (doubly linked, O(1) enroll and unenroll);
//   - one self-chaining heartbeat event per table that fires at each epoch
//     boundary, densely walks the due bucket, and schedules an exact kernel
//     event at each live deadline found there;
//   - direct exact probes for the rare deadlines the bucket walk cannot
//     cover: a deadline landing in the current (already walked) epoch, or a
//     deadline pulled earlier than the bucket a slot is enrolled under.
//
// Pending kernel timers drop from O(flows) to O(due-this-epoch) + 1. The
// observable expiry instant is exactly the recorded deadline, as before:
// every path fires the flow's timeout callback via an event scheduled at the
// deadline itself, and the callback re-checks the live deadline so stale
// probes and stale bucket entries are harmless.
//
// Determinism: heartbeats are scheduled ahead of T on the canonical
// (when, at) = (T, T) key (AtArgStamped), so their position among instant-T
// events — after everything scheduled before T, before anything scheduled
// during T — is identical whether the population lives in one serial table
// or is split across shard tables walking the same absolute epoch
// boundaries. Probes scheduled by a walk inherit at = T the same way on both
// sides.

// rtoEpochShift sets the wheel granularity: one epoch is 2^25 ns ≈ 33.6 ms,
// comfortably below RTOMin for every supported configuration (≥ 200 ms), so
// a bucket walk batches many flows without ever delaying an expiry.
const rtoEpochShift = 25

// rtoEpochLen is the epoch width in kernel ticks.
const rtoEpochLen = sim.Time(1) << rtoEpochShift

// rtoEpochOf maps an instant to its epoch number. Virtual time fits 32-bit
// epochs for ~4.5 virtual years.
func rtoEpochOf(t sim.Time) uint32 { return uint32(t >> rtoEpochShift) }

// wheelSize sizes the bucket ring: a power of two strictly covering the
// farthest epoch a deadline can land in — rtoMax stretched by the RTO-jitter
// defense — so a bucket is always walked before it can be reused.
func (t *FlowTable) wheelSize() int {
	maxRTO := float64(t.rtoMax)
	if t.cfg.RTOJitter > 0 {
		maxRTO *= 1 + t.cfg.RTOJitter
	}
	span := int(int64(maxRTO)>>rtoEpochShift) + 2
	size := 1
	for size <= span {
		size *= 2
	}
	return size
}

// enrollRTO links slot i into the bucket of the deadline's epoch. The caller
// guarantees the slot is not already enrolled and that the deadline's epoch
// is strictly in the future (the current epoch's walk has already run).
//
//pdos:hotpath
func (t *FlowTable) enrollRTO(i int, deadline sim.Time) {
	e := rtoEpochOf(deadline)
	b := e & t.rtoMask
	head := t.rtoBucket[b]
	t.rtoNext[i] = head
	t.rtoPrev[i] = -1
	if head >= 0 {
		t.rtoPrev[head] = int32(i)
	}
	t.rtoBucket[b] = int32(i)
	t.rtoEpoch[i] = e
	t.set(i, flagRTOEnrolled)
	t.rtoLive++
	if t.tickAt == 0 {
		t.startTicker()
	}
}

// unenrollRTO unlinks slot i from its bucket in O(1). No-op when not enrolled.
//
//pdos:hotpath
func (t *FlowTable) unenrollRTO(i int) {
	if !t.has(i, flagRTOEnrolled) {
		return
	}
	next, prev := t.rtoNext[i], t.rtoPrev[i]
	if next >= 0 {
		t.rtoPrev[next] = prev
	}
	if prev >= 0 {
		t.rtoNext[prev] = next
	} else {
		t.rtoBucket[t.rtoEpoch[i]&t.rtoMask] = next
	}
	t.clear(i, flagRTOEnrolled)
	t.rtoLive--
}

// startTicker arms the heartbeat chain at the next epoch boundary with
// canonical (when, at) stamps (see the determinism note above).
func (t *FlowTable) startTicker() {
	at := (t.k.Now()>>rtoEpochShift + 1) << rtoEpochShift
	t.tickAt = at
	if _, err := t.k.AtArgStamped(at, at, (*heartbeat)(t), nil); err != nil {
		panic("tcp: rto wheel heartbeat: " + err.Error())
	}
}

// heartbeat is the flow table as the handler of its heartbeat chain.
type heartbeat FlowTable

// Fire implements sim.Handler.
func (h *heartbeat) Fire(any) { (*FlowTable)(h).onTick() }

// onTick is the heartbeat: walk the bucket of the epoch that just began,
// then chain to the next boundary while any slot remains enrolled. Each fire
// is counted in tickFires so environments can subtract these bookkeeping
// events from Processed (see FlowTable.TimerTicks).
//
//pdos:hotpath
func (t *FlowTable) onTick() {
	t.tickFires++
	now := t.k.Now()
	t.walkBucket(rtoEpochOf(now))
	if t.rtoLive > 0 {
		at := now + rtoEpochLen
		t.tickAt = at
		if _, err := t.k.AtArgStamped(at, at, (*heartbeat)(t), nil); err != nil {
			panic("tcp: rto wheel heartbeat: " + err.Error())
		}
	} else {
		t.tickAt = 0
	}
}

// walkBucket drains epoch e's bucket. For each slot the live deadline
// decides: due this epoch → schedule the exact expiry event; moved later →
// re-enroll under its new epoch; moved earlier or disarmed → drop (a direct
// probe or nothing covers it).
//
//pdos:hotpath
func (t *FlowTable) walkBucket(e uint32) {
	b := e & t.rtoMask
	i := t.rtoBucket[b]
	t.rtoBucket[b] = -1
	for i >= 0 {
		next := t.rtoNext[i]
		t.clear(int(i), flagRTOEnrolled)
		t.rtoLive--
		d := t.hot[i].rtoDeadline
		if d != 0 {
			switch de := rtoEpochOf(d); {
			case de == e:
				if _, err := t.k.At(d, t.senders[i].timeoutFn); err != nil {
					panic("tcp: rto wheel expiry: " + err.Error())
				}
			case de > e:
				t.enrollRTO(int(i), d)
			}
			// de < e: the deadline was pulled earlier after enrollment; a
			// direct probe was scheduled at that moment and covers it.
		}
		i = next
	}
}

// rtoInitial is the conservative pre-sample RTO of RFC 6298: max(1s, RTOMin).
func (t *FlowTable) rtoInitial() sim.Time {
	initial := sim.FromDuration(time.Second)
	if t.rtoMin > initial {
		initial = t.rtoMin
	}
	return initial
}

// rtoSample folds a round-trip measurement for slot i into the smoothed
// estimate and resets the backoff, per Karn/Partridge.
//
//pdos:hotpath
func (t *FlowTable) rtoSample(i int, rtt sim.Time) {
	r := rtt.Seconds()
	if r < 0 {
		return
	}
	h := &t.hot[i]
	if h.flags&flagRTTSampled == 0 {
		h.flags |= flagRTTSampled
		h.srtt = r
		h.rttvar = r / 2
	} else {
		const alpha, beta = 1.0 / 8, 1.0 / 4
		d := h.srtt - r
		if d < 0 {
			d = -d
		}
		h.rttvar = (1-beta)*h.rttvar + beta*d
		h.srtt = (1-alpha)*h.srtt + alpha*r
	}
	h.rtoBackoff = 0
	h.rtoBase = t.rtoClamp(sim.FromSeconds(h.srtt + 4*h.rttvar))
}

// rtoStep doubles slot i's effective RTO after a retransmission timeout.
func (t *FlowTable) rtoStep(i int) {
	if t.hot[i].rtoBackoff < 12 { // 2^12 ≫ RTOMax/RTOMin for any sane config
		t.hot[i].rtoBackoff++
	}
}

// rto reports slot i's current effective timeout (base << backoff, clamped).
//
//pdos:hotpath
func (t *FlowTable) rto(i int) sim.Time {
	h := &t.hot[i]
	rto := h.rtoBase
	for n := uint8(0); n < h.rtoBackoff; n++ {
		rto *= 2
		if rto >= t.rtoMax {
			return t.rtoMax
		}
	}
	return t.rtoClamp(rto)
}

func (t *FlowTable) rtoClamp(v sim.Time) sim.Time {
	if v < t.rtoMin {
		return t.rtoMin
	}
	if v > t.rtoMax {
		return t.rtoMax
	}
	return v
}

// rtoEstimator is a single-flow view over a FlowTable's estimator state,
// retained so the RFC 6298 math stays unit-testable in isolation.
type rtoEstimator struct {
	t *FlowTable
}

func newRTOEstimator(rtoMin, rtoMax time.Duration) *rtoEstimator {
	cfg := DefaultConfig()
	cfg.RTOMin, cfg.RTOMax = rtoMin, rtoMax
	t, err := NewFlowTable(sim.New(), cfg, 1)
	if err != nil {
		panic(err)
	}
	return &rtoEstimator{t: t}
}

func (e *rtoEstimator) Sample(rtt sim.Time) { e.t.rtoSample(0, rtt) }
func (e *rtoEstimator) Backoff()            { e.t.rtoStep(0) }
func (e *rtoEstimator) RTO() sim.Time       { return e.t.rto(0) }
func (e *rtoEstimator) SRTT() float64       { return e.t.hot[0].srtt }
