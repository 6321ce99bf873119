package tcp

import (
	"fmt"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
	"pulsedos/internal/trace"
)

// MacroflowConfig parameterizes one fluid aggregate: a group of background
// TCP flows modeled as a single deterministic rate process instead of
// per-packet simulation.
type MacroflowConfig struct {
	Flow      int     // account id goodput is credited under
	Flows     int     // aggregated population size n (>= 1)
	RTT       float64 // representative round-trip time, seconds
	Share     float64 // the group's capacity share at its bottleneck, bits/sec
	MSS       int     // payload bytes per segment
	IncreaseA float64 // AIMD additive increase, segments per RTT per flow
	DecreaseB float64 // AIMD multiplicative decrease factor
	InitCwnd  float64 // per-flow initial window, segments
	MaxCwnd   float64 // per-flow window ceiling, segments
}

// Macroflow is the fluid tier of a mixed-fidelity simulation: it advances
// the classic TCP fluid ODE for an aggregate of n AIMD flows,
//
//	dW/dt = n·a/RTT − p·(W/RTT)·(1−b)·W/n,
//
// where W is the aggregate window in segments and p is the loss probability
// observed at the group's bottleneck link over the last tick (drops divided
// by arrivals of the packet-accurate traffic sharing that link). In steady
// state this settles at the standard per-flow equilibrium w ≈ √(a/(p(1−b)))
// — within a constant factor of the TCP-friendly √(3/2)/√p response curve —
// and under pulsing attacks the measured p spikes collapse the window and
// the AIMD term recovers it, mirroring the aggregate sawtooth of the packet
// tier without simulating its packets.
//
// The aggregate never emits packets: its goodput — the sending rate W/RTT
// capped at the configured capacity share — is credited directly to the
// delivery account each tick. Correspondingly, the topology builder carves
// the group's share out of the trunk link rates it traverses, so the
// packet-accurate foreground contends for exactly the residual capacity.
//
// Determinism: the tick chain is scheduled ahead of T on the canonical
// (when, at) = (T, T) key (AtArgStamped), so each tick orders after every
// event scheduled before T and before any zero-delay event spawned during T.
// All drop and arrival counter mutations at instant T happen inside events
// scheduled before T, which makes the observed loss fraction — and
// therefore the whole fluid trajectory — byte-identical between serial and
// sharded builds.
type Macroflow struct {
	k       *sim.Kernel
	cfg     MacroflowConfig
	link    *netem.Link // observed bottleneck (congestion signal source)
	account *trace.FlowAccount
	tick    sim.Time

	window   float64 // aggregate window, segments
	minWin   float64 // n·1 segment floor
	maxWin   float64 // n·MaxCwnd ceiling
	carry    float64 // fractional bytes pending credit
	lastArr  uint64
	lastDrop uint64
	started  bool
	stopped  bool
	ticks    uint64
}

// macroTick is the macroflow as the handler of its fluid-update chain.
type macroTick Macroflow

// Fire implements sim.Handler.
func (h *macroTick) Fire(any) { (*Macroflow)(h).onTick() }

// NewMacroflow builds a fluid aggregate on the kernel that owns the observed
// bottleneck link. account may be nil when goodput accounting is not needed.
func NewMacroflow(k *sim.Kernel, cfg MacroflowConfig, link *netem.Link, account *trace.FlowAccount) (*Macroflow, error) {
	if k == nil || link == nil {
		return nil, fmt.Errorf("tcp: macroflow %d: nil kernel or link", cfg.Flow)
	}
	if cfg.Flows < 1 {
		return nil, fmt.Errorf("tcp: macroflow %d: needs >= 1 aggregated flow, got %d", cfg.Flow, cfg.Flows)
	}
	if cfg.RTT <= 0 || cfg.Share <= 0 || cfg.MSS <= 0 {
		return nil, fmt.Errorf("tcp: macroflow %d: RTT, Share and MSS must be positive", cfg.Flow)
	}
	if cfg.IncreaseA <= 0 || cfg.DecreaseB <= 0 || cfg.DecreaseB >= 1 {
		return nil, fmt.Errorf("tcp: macroflow %d: need a > 0 and 0 < b < 1", cfg.Flow)
	}
	if cfg.InitCwnd < 1 {
		cfg.InitCwnd = 1
	}
	if cfg.MaxCwnd < cfg.InitCwnd {
		cfg.MaxCwnd = cfg.InitCwnd
	}
	n := float64(cfg.Flows)
	m := &Macroflow{
		k:       k,
		cfg:     cfg,
		link:    link,
		account: account,
		window:  n * cfg.InitCwnd,
		minWin:  n,
		maxWin:  n * cfg.MaxCwnd,
	}
	// Half an RTT per step keeps the explicit Euler update of the ODE stable
	// while still reacting within the round-trip the real aggregate would.
	m.tick = sim.FromSeconds(cfg.RTT / 2)
	if m.tick < sim.Millisecond {
		m.tick = sim.Millisecond
	}
	return m, nil
}

// Flow reports the account id the aggregate delivers under.
func (m *Macroflow) Flow() int { return m.cfg.Flow }

// Flows reports the aggregated population size.
func (m *Macroflow) Flows() int { return m.cfg.Flows }

// Window reports the current aggregate window in segments.
func (m *Macroflow) Window() float64 { return m.window }

// Rate reports the current aggregate sending rate in bits per second.
func (m *Macroflow) Rate() float64 {
	r := m.window * float64(m.cfg.MSS) * 8 / m.cfg.RTT
	if r > m.cfg.Share {
		r = m.cfg.Share
	}
	return r
}

// Ticks reports how many fluid updates have run (model events, unlike the
// RTO wheel's heartbeats: the chain is identical in serial and sharded
// builds, so it needs no Processed correction).
func (m *Macroflow) Ticks() uint64 { return m.ticks }

// Start begins the fluid process at the given virtual instant.
func (m *Macroflow) Start(at sim.Time) error {
	if m.started {
		return fmt.Errorf("tcp: macroflow %d already started", m.cfg.Flow)
	}
	m.started = true
	st := m.link.Stats()
	m.lastArr, m.lastDrop = st.Arrivals, st.Drops
	first := at
	if now := m.k.Now(); first < now {
		first = now
	}
	first += m.tick
	if _, err := m.k.AtArgStamped(first, first, (*macroTick)(m), nil); err != nil {
		return fmt.Errorf("tcp: start macroflow %d: %w", m.cfg.Flow, err)
	}
	return nil
}

// Stop halts the fluid process; the pending tick drains without effect.
func (m *Macroflow) Stop() { m.stopped = true }

// onTick advances the fluid ODE by one step and credits the interval's
// goodput.
//
//pdos:hotpath
func (m *Macroflow) onTick() {
	if m.stopped {
		return
	}
	m.ticks++
	now := m.k.Now()
	dt := m.tick.Seconds()
	n := float64(m.cfg.Flows)

	// Congestion signal: loss fraction of the packet-accurate traffic that
	// shares the bottleneck over the last tick. An idle link reads as p = 0.
	st := m.link.Stats()
	dArr := st.Arrivals - m.lastArr
	dDrop := st.Drops - m.lastDrop
	m.lastArr, m.lastDrop = st.Arrivals, st.Drops
	p := 0.0
	if dArr > 0 {
		p = float64(dDrop) / float64(dArr)
	}

	// Credit the step's goodput at the pre-update rate, then fold the ODE.
	rate := m.window * float64(m.cfg.MSS) * 8 / m.cfg.RTT
	if rate > m.cfg.Share {
		rate = m.cfg.Share
	}
	bytes := rate*dt/8 + m.carry
	whole := float64(int64(bytes))
	m.carry = bytes - whole
	if m.account != nil && whole > 0 {
		m.account.Deliver(m.cfg.Flow, int(int64(whole)), now)
	}

	w := m.window
	w += dt * (n*m.cfg.IncreaseA/m.cfg.RTT - p*(w/m.cfg.RTT)*(1-m.cfg.DecreaseB)*w/n)
	if w < m.minWin {
		w = m.minWin
	}
	if w > m.maxWin {
		w = m.maxWin
	}
	m.window = w

	next := now + m.tick
	if _, err := m.k.AtArgStamped(next, next, (*macroTick)(m), nil); err != nil {
		panic("tcp: macroflow tick: " + err.Error())
	}
}
