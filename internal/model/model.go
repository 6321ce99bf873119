// Package model implements the paper's analytical results: the converged
// congestion window under a periodic AIMD-based PDoS attack (Eq. 1), victim
// throughput during the transient and steady phases (Proposition 1), the
// normal and under-attack aggregate throughput approximations (Lemmas 1–2),
// the normalized throughput degradation Γ and its constant C_Ψ
// (Proposition 2, Eq. 11), the victim constant C_victim (Eq. 18), the risk
// factor (1-γ)^κ, and the attack gain G_attack (Eq. 5/12).
//
// Units follow the paper: rates in bits per second, packet sizes in bytes,
// times in seconds, windows in segments.
package model

import (
	"errors"
	"fmt"
	"math"
)

// AIMD carries the additive-increase/multiplicative-decrease parameters
// (a, b) of the general AIMD(a,b) algorithm: on a congestion signal the
// window decreases W → b·W; otherwise it grows by a segments per RTT.
type AIMD struct {
	A float64 // additive increase, segments per RTT; a > 0
	B float64 // multiplicative decrease factor; 0 < b < 1
}

// TCPAIMD returns AIMD(1, 0.5), used by Tahoe, Reno, and NewReno.
func TCPAIMD() AIMD { return AIMD{A: 1, B: 0.5} }

// Validate reports whether the parameters satisfy a > 0, 0 < b < 1.
func (m AIMD) Validate() error {
	if m.A <= 0 {
		return fmt.Errorf("model: AIMD increase a must be positive, got %g", m.A)
	}
	if m.B <= 0 || m.B >= 1 {
		return fmt.Errorf("model: AIMD decrease b must be in (0,1), got %g", m.B)
	}
	return nil
}

// Params gathers everything the closed-form expressions need about the
// victims and the bottleneck.
type Params struct {
	AIMD       AIMD
	AckRatio   float64   // the paper's d: segments per delayed ACK (>= 1)
	PacketSize float64   // S_packet in bytes
	Bottleneck float64   // R_bottle in bits per second
	RTTs       []float64 // per-victim round-trip times in seconds
}

// Validate reports the first parameter error, if any.
func (p Params) Validate() error {
	if err := p.AIMD.Validate(); err != nil {
		return err
	}
	switch {
	case p.AckRatio < 1:
		return fmt.Errorf("model: ACK ratio d must be >= 1, got %g", p.AckRatio)
	case p.PacketSize <= 0:
		return fmt.Errorf("model: packet size must be positive, got %g", p.PacketSize)
	case p.Bottleneck <= 0:
		return fmt.Errorf("model: bottleneck rate must be positive, got %g", p.Bottleneck)
	case len(p.RTTs) == 0:
		return errors.New("model: at least one victim RTT required")
	}
	for i, rtt := range p.RTTs {
		if rtt <= 0 {
			return fmt.Errorf("model: RTT %d must be positive, got %g", i, rtt)
		}
	}
	return nil
}

// CalibrateRTTs returns a copy of p with each RTT raised to the matching
// measured smoothed RTT: the operative RTT (propagation plus queueing) the
// victims' per-RTT window growth paces on. An RTT never drops below its
// propagation value, and measurements past len(p.RTTs) are ignored.
func (p Params) CalibrateRTTs(srtts []float64) Params {
	p.RTTs = append([]float64(nil), p.RTTs...)
	for i, srtt := range srtts {
		if i < len(p.RTTs) && srtt > p.RTTs[i] {
			p.RTTs[i] = srtt
		}
	}
	return p
}

// InverseRTTSquaredSum reports Σ_i 1/RTT_i², the victim-population factor in
// Lemma 2 and Eq. 11.
func (p Params) InverseRTTSquaredSum() float64 {
	sum := 0.0
	for _, rtt := range p.RTTs {
		sum += 1 / (rtt * rtt)
	}
	return sum
}

// ConvergedWindow returns W_c of Eq. 1: the fixed point the victim's cwnd is
// driven to by a periodic attack of period T_AIMD seconds over a path with
// the given RTT:
//
//	W_c = a/(1-b) · 1/d · T_AIMD/RTT.
func (p Params) ConvergedWindow(periodSec, rttSec float64) float64 {
	return p.AIMD.A / (1 - p.AIMD.B) / p.AckRatio * periodSec / rttSec
}

// WindowAfterPulses iterates the per-epoch window map W_{n+1} = b·W_n +
// (a/d)·(T_AIMD/RTT) starting from w1, returning the window just before the
// (n+1)-th attack epoch. It converges to ConvergedWindow.
func (p Params) WindowAfterPulses(w1, periodSec, rttSec float64, n int) float64 {
	growth := p.AIMD.A / p.AckRatio * periodSec / rttSec
	w := w1
	for i := 0; i < n; i++ {
		w = p.AIMD.B*w + growth
	}
	return w
}

// PulsesToConverge reports N_attack: the minimum number of attack pulses
// needed to bring the window from w1 to within tol segments of the converged
// value (Proposition 1's transient length). tol <= 0 defaults to one
// segment. The paper notes fewer than 10 pulses suffice for typical TCP.
func (p Params) PulsesToConverge(w1, periodSec, rttSec, tol float64) int {
	if tol <= 0 {
		tol = 1
	}
	wc := p.ConvergedWindow(periodSec, rttSec)
	growth := p.AIMD.A / p.AckRatio * periodSec / rttSec
	w := w1
	for n := 1; ; n++ {
		w = p.AIMD.B*w + growth
		if math.Abs(w-wc) <= tol || n >= 1<<16 {
			return n
		}
	}
}

// VictimThroughput evaluates Proposition 1 (Eq. 2): the bytes a single
// victim with initial window w1 delivers across an N-pulse attack of period
// T_AIMD seconds. The first N_attack-1 inter-pulse intervals form the
// transient phase with the exact window iteration; the remaining
// N - N_attack intervals use the steady-state sawtooth term.
func (p Params) VictimThroughput(w1, periodSec, rttSec float64, n int) float64 {
	if n < 2 {
		return 0
	}
	nAttack := p.PulsesToConverge(w1, periodSec, rttSec, 1)
	if nAttack > n {
		nAttack = n
	}
	ratio := periodSec / rttSec
	a, b, d := p.AIMD.A, p.AIMD.B, p.AckRatio

	// Transient phase: between the i-th and (i+1)-th epochs the sender
	// ships (b·W_i + a/(2d)·ratio) · ratio packets.
	packets := 0.0
	w := w1
	for i := 1; i <= nAttack-1; i++ {
		packets += (b*w + a/(2*d)*ratio) * ratio
		w = b*w + a/d*ratio
	}
	// Steady phase: each of the remaining periods carries the sawtooth area
	// (b·W_c + a/(2d)·ratio)·ratio = a(1+b)/(2d(1-b)) · ratio².
	steady := a * (1 + b) / (2 * d * (1 - b)) * ratio * ratio
	packets += steady * float64(n-nAttack)
	return packets * p.PacketSize
}

// NormalThroughput evaluates Lemma 1 (Eq. 8): absent an attack the victim
// aggregate saturates the bottleneck, so across the (N-1)·T_AIMD span it
// delivers R_bottle·(N-1)·T_AIMD/8 bytes.
func (p Params) NormalThroughput(periodSec float64, n int) float64 {
	if n < 2 {
		return 0
	}
	return p.Bottleneck * float64(n-1) * periodSec / 8
}

// AttackThroughput evaluates Lemma 2 (Eq. 9): the aggregate bytes the victim
// population delivers under the attack, using the steady-state approximation
// W_n ≈ W_c for the (short) transient:
//
//	Ψ_attack = a(1+b)·T_AIMD²·S_packet / (2d(1-b)) · (N-1) · Σ 1/RTT_i².
func (p Params) AttackThroughput(periodSec float64, n int) float64 {
	if n < 2 {
		return 0
	}
	a, b, d := p.AIMD.A, p.AIMD.B, p.AckRatio
	return a * (1 + b) * periodSec * periodSec * p.PacketSize /
		(2 * d * (1 - b)) * float64(n-1) * p.InverseRTTSquaredSum()
}

// Attack describes one uniform pulse train in the model's terms.
type Attack struct {
	Extent float64 // T_extent in seconds
	Rate   float64 // R_attack in bps
	Period float64 // T_AIMD in seconds
}

// Gamma reports the normalized average attack rate (Eq. 4):
// γ = R_attack·T_extent / (R_bottle·T_AIMD).
func (a Attack) Gamma(bottleneck float64) float64 {
	if bottleneck <= 0 || a.Period <= 0 {
		return 0
	}
	return a.Rate * a.Extent / (bottleneck * a.Period)
}

// CAttack reports C_attack = R_attack / R_bottle, the per-pulse rate
// normalized by the bottleneck capacity (§3.1).
func (a Attack) CAttack(bottleneck float64) float64 {
	if bottleneck <= 0 {
		return 0
	}
	return a.Rate / bottleneck
}

// Mu reports μ = T_space / T_extent, the reciprocal of the duty cycle.
func (a Attack) Mu() float64 {
	if a.Extent <= 0 {
		return 0
	}
	return (a.Period - a.Extent) / a.Extent
}

// CVictim evaluates Eq. 18, the victim-population constant:
//
//	C_victim = 4a(1+b)·S_packet / ((1-b)·d·R_bottle) · Σ 1/RTT_i².
func (p Params) CVictim() float64 {
	a, b, d := p.AIMD.A, p.AIMD.B, p.AckRatio
	return 4 * a * (1 + b) * p.PacketSize / ((1 - b) * d * p.Bottleneck) *
		p.InverseRTTSquaredSum()
}

// CPsi evaluates Eq. 11 for a pulse of width extentSec at rate rate:
//
//	C_Ψ = 4a(1+b)·T_extent·S_packet·C_attack / ((1-b)·d·R_bottle) · Σ 1/RTT_i²
//	    = C_victim · T_extent · C_attack.
func (p Params) CPsi(extentSec, rate float64) float64 {
	return p.CVictim() * extentSec * rate / p.Bottleneck
}

// Degradation evaluates Proposition 2 (Eq. 10): Γ = 1 - C_Ψ/γ, the
// normalized throughput degradation. Values are clamped to [0, 1]: γ below
// C_Ψ means the model predicts no degradation.
func Degradation(cPsi, gamma float64) float64 {
	if gamma <= 0 {
		return 0
	}
	g := 1 - cPsi/gamma
	switch {
	case g < 0:
		return 0
	case g > 1:
		return 1
	default:
		return g
	}
}

// RiskFactor evaluates (1-γ)^κ, the attacker's risk-preference weight
// (Fig. 4): κ > 1 risk-averse, κ = 1 risk-neutral, 0 < κ < 1 risk-loving.
func RiskFactor(gamma, kappa float64) float64 {
	if gamma <= 0 {
		return 1
	}
	if gamma >= 1 {
		return 0
	}
	return math.Pow(1-gamma, kappa)
}

// Gain evaluates the attack gain G_attack = Γ·(1-γ)^κ (Eq. 5/12) in its
// computable form (1 - C_Ψ/γ)(1-γ)^κ.
func Gain(cPsi, gamma, kappa float64) float64 {
	return Degradation(cPsi, gamma) * RiskFactor(gamma, kappa)
}

// RiskPreference classifies κ per the paper's taxonomy.
type RiskPreference uint8

// Risk-preference classes.
const (
	RiskLoving  RiskPreference = iota + 1 // 0 < κ < 1
	RiskNeutral                           // κ = 1
	RiskAverse                            // κ > 1
)

// String implements fmt.Stringer.
func (r RiskPreference) String() string {
	switch r {
	case RiskLoving:
		return "risk-loving"
	case RiskNeutral:
		return "risk-neutral"
	case RiskAverse:
		return "risk-averse"
	default:
		return "unknown"
	}
}

// ClassifyRisk maps κ to its preference class.
func ClassifyRisk(kappa float64) RiskPreference {
	switch {
	case kappa < 1:
		return RiskLoving
	case kappa > 1:
		return RiskAverse
	default:
		return RiskNeutral
	}
}
