package netem

import (
	"math"

	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
)

// REDConfig carries the Random Early Detection parameters. The defaults
// (via DefaultREDConfig) follow Floyd & Jacobson's recommendations and the
// settings the paper's test-bed uses: min_th = 0.2·B, max_th = 0.8·B,
// w_q = 0.002, max_p = 0.1, gentle enabled.
type REDConfig struct {
	Limit  int     // physical capacity in packets
	MinTh  float64 // lower average-queue threshold, packets
	MaxTh  float64 // upper average-queue threshold, packets
	Wq     float64 // queue-average EWMA weight
	MaxP   float64 // max drop probability at MaxTh
	Gentle bool    // ramp drop prob from MaxP to 1 over [MaxTh, 2·MaxTh]

	// MeanPacketSize (bytes) calibrates the idle-period decay of the queue
	// average. Defaults to 1000 when zero.
	MeanPacketSize int
}

// DefaultREDConfig returns the paper's RED parameterization for a queue of
// the given physical packet capacity.
func DefaultREDConfig(limit int) REDConfig {
	return REDConfig{
		Limit:  limit,
		MinTh:  0.2 * float64(limit),
		MaxTh:  0.8 * float64(limit),
		Wq:     0.002,
		MaxP:   0.1,
		Gentle: true,
	}
}

// RED implements Random Early Detection with the gentle extension, following
// Floyd & Jacobson (1993) and the ns-2 implementation: an EWMA of the
// instantaneous queue length selects a drop probability that rises linearly
// from 0 at MinTh to MaxP at MaxTh (and on to 1 at 2·MaxTh when gentle), with
// the inter-drop count correction that spaces early drops uniformly.
type RED struct {
	cfg  REDConfig
	rand *rng.Source
	fifo *DropTail

	avg       float64  // EWMA of queue length in packets
	count     int      // packets since last early drop
	idleSince sim.Time // instant the queue went empty; -1 while busy
	drainRate float64  // bytes/sec used for idle decay; 0 disables

	earlyDrops  uint64
	forcedDrops uint64

	// Adaptive-RED state (see ared.go).
	adaptive  bool
	lastAdapt sim.Time
}

var _ Queue = (*RED)(nil)

// NewRED builds a RED queue. rand must be non-nil: RED's early drops are
// randomized, and the caller owns seeding for reproducibility. linkRate is
// the drain rate of the guarded link in bits per second, used to decay the
// queue average across idle periods (pass 0 to disable idle decay).
func NewRED(cfg REDConfig, rand *rng.Source, linkRate float64) *RED {
	if cfg.Limit < 1 {
		cfg.Limit = 1
	}
	if cfg.MeanPacketSize <= 0 {
		cfg.MeanPacketSize = 1000
	}
	if cfg.Wq <= 0 {
		cfg.Wq = 0.002
	}
	return &RED{
		cfg:       cfg,
		rand:      rand,
		fifo:      NewDropTail(cfg.Limit),
		idleSince: 0,
		drainRate: linkRate / 8,
	}
}

// Enqueue implements Queue, applying the RED drop test before admission.
//
//pdos:hotpath
func (q *RED) Enqueue(p *Packet, now sim.Time) bool {
	q.updateAverage(now)
	q.maybeAdapt(now)
	if q.fifo.Len() >= q.cfg.Limit {
		q.forcedDrops++
		q.count = 0
		return false
	}
	if q.dropEarly() {
		q.earlyDrops++
		return false
	}
	if !q.fifo.Enqueue(p, now) {
		q.forcedDrops++
		q.count = 0
		return false
	}
	q.idleSince = -1
	return true
}

// Dequeue implements Queue.
//
//pdos:hotpath
func (q *RED) Dequeue(now sim.Time) *Packet {
	p := q.fifo.Dequeue(now)
	if p != nil && q.fifo.Len() == 0 {
		q.idleSince = now
	}
	return p
}

// Peek implements Queue.
func (q *RED) Peek() *Packet { return q.fifo.Peek() }

// Len implements Queue.
func (q *RED) Len() int { return q.fifo.Len() }

// Bytes implements Queue.
func (q *RED) Bytes() int { return q.fifo.Bytes() }

// Average reports the current EWMA queue estimate in packets.
func (q *RED) Average() float64 { return q.avg }

// EarlyDrops reports the count of probabilistic (unforced) drops.
func (q *RED) EarlyDrops() uint64 { return q.earlyDrops }

// ForcedDrops reports the count of buffer-overflow drops.
func (q *RED) ForcedDrops() uint64 { return q.forcedDrops }

// updateAverage folds the instantaneous queue length into the EWMA. Across
// an idle period the average decays as if m small packets had drained, per
// the RED paper's idle-time adjustment.
//
//pdos:hotpath
func (q *RED) updateAverage(now sim.Time) {
	if q.fifo.Len() > 0 || q.idleSince < 0 || q.drainRate <= 0 {
		q.avg = (1-q.cfg.Wq)*q.avg + q.cfg.Wq*float64(q.fifo.Len())
		return
	}
	idle := now.Sub(q.idleSince).Seconds()
	if idle < 0 {
		idle = 0
	}
	perPacket := float64(q.cfg.MeanPacketSize) / q.drainRate
	if perPacket > 0 {
		m := idle / perPacket
		if m > 0 {
			q.avg *= pow1mWq(q.cfg.Wq, m)
		}
	}
	q.avg = (1 - q.cfg.Wq) * q.avg // fold in the (zero) current length
}

// pow1mWq computes (1-wq)^m for fractional m via exp(m·ln(1-wq)).
func pow1mWq(wq, m float64) float64 {
	return math.Exp(m * math.Log(1-wq))
}

// dropEarly applies the RED probabilistic drop test to an arriving packet.
//
//pdos:hotpath
func (q *RED) dropEarly() bool {
	avg := q.avg
	cfg := q.cfg
	var pb float64
	switch {
	case avg < cfg.MinTh:
		q.count = -1
		return false
	case avg < cfg.MaxTh:
		pb = cfg.MaxP * (avg - cfg.MinTh) / (cfg.MaxTh - cfg.MinTh)
	case cfg.Gentle && avg < 2*cfg.MaxTh:
		pb = cfg.MaxP + (1-cfg.MaxP)*(avg-cfg.MaxTh)/cfg.MaxTh
	default:
		q.count = 0
		return true
	}
	q.count++
	// Inter-drop spacing correction: pa = pb / (1 - count·pb).
	denom := 1 - float64(q.count)*pb
	if denom <= 0 {
		q.count = 0
		return true
	}
	pa := pb / denom
	if q.rand.Float64() < pa {
		q.count = 0
		return true
	}
	return false
}
