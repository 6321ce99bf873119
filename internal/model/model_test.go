package model

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func paperParams(flows int) Params {
	rtts := make([]float64, flows)
	for i := range rtts {
		rtts[i] = 0.02
		if flows > 1 {
			rtts[i] += (0.46 - 0.02) * float64(i) / float64(flows-1)
		}
	}
	return Params{
		AIMD:       TCPAIMD(),
		AckRatio:   1,
		PacketSize: 1040,
		Bottleneck: 15e6,
		RTTs:       rtts,
	}
}

func TestAIMDValidate(t *testing.T) {
	if err := TCPAIMD().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []AIMD{{A: 0, B: 0.5}, {A: -1, B: 0.5}, {A: 1, B: 0}, {A: 1, B: 1}, {A: 1, B: 1.5}}
	for _, m := range bad {
		if err := m.Validate(); err == nil {
			t.Errorf("AIMD %+v accepted", m)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := paperParams(15).Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []struct {
		name   string
		mutate func(*Params)
	}{
		{"bad aimd", func(p *Params) { p.AIMD.A = 0 }},
		{"ack ratio", func(p *Params) { p.AckRatio = 0.5 }},
		{"packet size", func(p *Params) { p.PacketSize = 0 }},
		{"bottleneck", func(p *Params) { p.Bottleneck = -1 }},
		{"no rtts", func(p *Params) { p.RTTs = nil }},
		{"zero rtt", func(p *Params) { p.RTTs = []float64{0.1, 0} }},
	}
	for _, tt := range mutations {
		t.Run(tt.name, func(t *testing.T) {
			p := paperParams(3)
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("want error")
			}
		})
	}
}

// TestCalibrateRTTs: each RTT rises to its measured SRTT, never falls, and
// the receiver's RTT slice is left alone.
func TestCalibrateRTTs(t *testing.T) {
	p := Params{RTTs: []float64{0.02, 0.24, 0.46}}
	got := p.CalibrateRTTs([]float64{0.05, 0.1, 0.5, 9})
	want := []float64{0.05, 0.24, 0.5}
	if len(got.RTTs) != len(want) {
		t.Fatalf("RTTs = %v, want %v", got.RTTs, want)
	}
	for i := range want {
		if got.RTTs[i] != want[i] {
			t.Errorf("RTT %d = %g, want %g", i, got.RTTs[i], want[i])
		}
	}
	if p.RTTs[0] != 0.02 {
		t.Errorf("receiver mutated: %v", p.RTTs)
	}
	if short := p.CalibrateRTTs([]float64{0.03}); short.RTTs[1] != 0.24 {
		t.Errorf("missing measurements changed RTTs: %v", short.RTTs)
	}
}

func TestConvergedWindowEq1(t *testing.T) {
	p := paperParams(1)
	// Wc = a/(1-b) · 1/d · T/RTT = 2 · T/RTT for TCP with d = 1.
	if got := p.ConvergedWindow(2, 0.1); math.Abs(got-40) > 1e-12 {
		t.Errorf("Wc = %g, want 40", got)
	}
	// Delayed ACK d = 2 halves it (Eq. 1).
	p.AckRatio = 2
	if got := p.ConvergedWindow(2, 0.1); math.Abs(got-20) > 1e-12 {
		t.Errorf("Wc with d=2 = %g, want 20", got)
	}
}

// TestWindowIterationConvergesToEq1: the per-epoch map W ← bW + (a/d)(T/RTT)
// has Eq. 1's Wc as its fixed point for any valid parameters.
func TestWindowIterationConvergesToEq1(t *testing.T) {
	property := func(w1Raw, periodRaw, rttRaw uint16, bRaw uint8) bool {
		p := paperParams(1)
		p.AIMD.B = 0.1 + 0.8*float64(bRaw)/255 // b in [0.1, 0.9]
		w1 := 1 + float64(w1Raw%1000)
		period := 0.1 + float64(periodRaw%40)/10 // 0.1..4.1 s
		rtt := 0.02 + float64(rttRaw%440)/1000   // 20..460 ms
		wc := p.ConvergedWindow(period, rtt)
		got := p.WindowAfterPulses(w1, period, rtt, 300)
		return math.Abs(got-wc) < 1e-6*math.Max(1, wc)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestPulsesToConvergeSmall(t *testing.T) {
	p := paperParams(1)
	// The paper: fewer than 10 pulses suffice for typical TCP windows.
	n := p.PulsesToConverge(64, 2, 0.1, 1)
	if n >= 10 {
		t.Errorf("N_attack = %d, want < 10", n)
	}
	if n < 1 {
		t.Errorf("N_attack = %d", n)
	}
	// Already converged: one pulse.
	wc := p.ConvergedWindow(2, 0.1)
	if got := p.PulsesToConverge(wc, 2, 0.1, 1); got != 1 {
		t.Errorf("converged start: N_attack = %d", got)
	}
}

func TestVictimThroughputSteadyState(t *testing.T) {
	p := paperParams(1)
	period, rtt := 2.0, 0.1
	wc := p.ConvergedWindow(period, rtt)
	// Starting at Wc the transient is trivial, so Prop. 1 reduces to the
	// steady term: N-1 periods × a(1+b)/(2d(1-b))·(T/RTT)² packets.
	n := 11
	got := p.VictimThroughput(wc, period, rtt, n)
	steadyPerPeriod := 1.0 * (1 + 0.5) / (2 * 1 * 0.5) * (period / rtt) * (period / rtt)
	want := steadyPerPeriod * float64(n-1) * p.PacketSize
	if math.Abs(got-want)/want > 0.02 {
		t.Errorf("steady throughput = %g, want ≈ %g", got, want)
	}
	// Fewer than 2 pulses: nothing measurable.
	if p.VictimThroughput(wc, period, rtt, 1) != 0 {
		t.Error("n=1 should be 0")
	}
}

func TestVictimThroughputTransientAdds(t *testing.T) {
	p := paperParams(1)
	period, rtt := 2.0, 0.1
	wc := p.ConvergedWindow(period, rtt)
	// Starting far above Wc, the transient intervals carry more packets, so
	// total throughput must exceed the steady-only approximation.
	fromHigh := p.VictimThroughput(10*wc, period, rtt, 20)
	fromWc := p.VictimThroughput(wc, period, rtt, 20)
	if fromHigh <= fromWc {
		t.Errorf("transient from high window %g <= steady %g", fromHigh, fromWc)
	}
}

func TestNormalThroughputLemma1(t *testing.T) {
	p := paperParams(15)
	// Ψ_normal = R·(N-1)·T/8 bytes.
	got := p.NormalThroughput(2, 16)
	want := 15e6 * 15 * 2 / 8
	if got != want {
		t.Errorf("normal throughput = %g, want %g", got, want)
	}
	if p.NormalThroughput(2, 1) != 0 {
		t.Error("n=1 should be 0")
	}
}

func TestAttackThroughputLemma2(t *testing.T) {
	p := paperParams(2)
	p.RTTs = []float64{0.1, 0.2}
	// Ψ_attack = a(1+b)T²S/(2d(1-b))·(N-1)·Σ1/RTT².
	got := p.AttackThroughput(2, 11)
	sum := 1/0.01 + 1/0.04
	want := 1 * 1.5 * 4 * 1040 / (2 * 1 * 0.5) * 10 * sum
	if math.Abs(got-want)/want > 1e-12 {
		t.Errorf("attack throughput = %g, want %g", got, want)
	}
}

func TestCPsiIdentity(t *testing.T) {
	// C_Ψ = C_victim · T_extent · C_attack (Eq. 11 vs Eq. 18).
	p := paperParams(25)
	extent, rate := 0.075, 35e6
	cPsi := p.CPsi(extent, rate)
	want := p.CVictim() * extent * rate / p.Bottleneck
	if math.Abs(cPsi-want) > 1e-15 {
		t.Errorf("CPsi = %g, want %g", cPsi, want)
	}
}

func TestCPsiConsistentWithLemmas(t *testing.T) {
	// Γ = 1 - Ψ_attack/Ψ_normal must equal 1 - C_Ψ/γ for any uniform attack.
	p := paperParams(15)
	extent, rate, period := 0.075, 35e6, 0.35
	gamma := Attack{Extent: extent, Rate: rate, Period: period}.Gamma(p.Bottleneck)
	lhs := 1 - p.AttackThroughput(period, 100)/p.NormalThroughput(period, 100)
	rhs := 1 - p.CPsi(extent, rate)/gamma
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Errorf("Lemma-based Γ = %g, C_Ψ-based Γ = %g", lhs, rhs)
	}
}

func TestAttackSpecAccessors(t *testing.T) {
	a := Attack{Extent: 0.05, Rate: 100e6, Period: 2}
	if g := a.Gamma(15e6); math.Abs(g-100e6*0.05/(15e6*2)) > 1e-15 {
		t.Errorf("gamma = %g", g)
	}
	if c := a.CAttack(15e6); math.Abs(c-100.0/15) > 1e-12 {
		t.Errorf("CAttack = %g", c)
	}
	if mu := a.Mu(); math.Abs(mu-(2-0.05)/0.05) > 1e-9 {
		t.Errorf("mu = %g", mu)
	}
	if (Attack{}).Gamma(15e6) != 0 || (Attack{}).Mu() != 0 || a.CAttack(0) != 0 {
		t.Error("degenerate accessors should be 0")
	}
}

func TestDegradationClamps(t *testing.T) {
	tests := []struct {
		cPsi, gamma, want float64
	}{
		{0.1, 0.5, 0.8},
		{0.5, 0.5, 0},  // γ = C_Ψ: no predicted damage
		{0.9, 0.5, 0},  // γ < C_Ψ: clamped to 0
		{0, 0.5, 1},    // free damage clamps to 1
		{0.1, 0, 0},    // no attack
		{-0.1, 0.5, 1}, // negative C_Ψ clamps at 1
	}
	for _, tt := range tests {
		if got := Degradation(tt.cPsi, tt.gamma); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Degradation(%g, %g) = %g, want %g", tt.cPsi, tt.gamma, got, tt.want)
		}
	}
}

func TestRiskFactor(t *testing.T) {
	if RiskFactor(0, 5) != 1 {
		t.Error("gamma=0 should be risk-free")
	}
	if RiskFactor(1, 5) != 0 || RiskFactor(1.5, 5) != 0 {
		t.Error("gamma>=1 should be certain detection")
	}
	if got := RiskFactor(0.5, 1); got != 0.5 {
		t.Errorf("neutral = %g", got)
	}
	if got := RiskFactor(0.5, 2); math.Abs(got-0.25) > 1e-15 {
		t.Errorf("averse = %g", got)
	}
	// Risk-averse decays faster than risk-loving at every interior γ.
	for g := 0.1; g < 1; g += 0.1 {
		if RiskFactor(g, 3) >= RiskFactor(g, 0.3) {
			t.Errorf("ordering violated at gamma=%.1f", g)
		}
	}
}

// TestGainProperties: G ∈ [0,1], zero outside the feasible band, and single-
// peaked in γ for fixed C_Ψ, κ.
func TestGainProperties(t *testing.T) {
	property := func(cPsiRaw, kappaRaw uint8) bool {
		cPsi := 0.01 + 0.9*float64(cPsiRaw)/255
		kappa := 0.1 + 5*float64(kappaRaw)/255
		prev := -1.0
		increasing := true
		peaks := 0
		for g := 0.001; g < 1; g += 0.001 {
			gain := Gain(cPsi, g, kappa)
			if gain < 0 || gain > 1 {
				return false
			}
			if gain < prev && increasing && prev > 0 {
				increasing = false
				peaks++
			}
			if gain > prev+1e-12 && !increasing && prev > 0 {
				return false // second rise: not unimodal
			}
			prev = gain
		}
		return peaks <= 1
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(43))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

func TestClassifyRisk(t *testing.T) {
	tests := []struct {
		kappa float64
		want  RiskPreference
	}{
		{0.5, RiskLoving},
		{1, RiskNeutral},
		{2, RiskAverse},
	}
	for _, tt := range tests {
		if got := ClassifyRisk(tt.kappa); got != tt.want {
			t.Errorf("ClassifyRisk(%g) = %v", tt.kappa, got)
		}
	}
	for _, r := range []RiskPreference{RiskLoving, RiskNeutral, RiskAverse, RiskPreference(9)} {
		if r.String() == "" {
			t.Error("empty String")
		}
	}
}

func TestInverseRTTSquaredSum(t *testing.T) {
	p := paperParams(1)
	p.RTTs = []float64{0.1, 0.2}
	want := 100.0 + 25.0
	if got := p.InverseRTTSquaredSum(); math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %g, want %g", got, want)
	}
}
