// Package experiments holds the run primitives and result types the paper's
// §4 experiments are built from: Run/RunCtx (one attacked or baseline run
// with its taps), RunMiceCtx (the mice-vs-elephants workload), AnalyzeSync
// (the Fig. 3 synchronization post-processing), GainPoint with
// PeriodForGamma, PeakPoint and the §4.1.1 classification, the shrew
// harmonics of Fig. 10, the risk curves of Fig. 4, the fixed figure
// dimensions (dims.go) and the task pool (RunTasksCtx). The figures and the
// gain, shrew, maximization and defense studies compose these as scenario
// documents in internal/figures. internal/topo generates and builds the
// topologies they run on.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pulsedos/internal/attack"
	"pulsedos/internal/model"
	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
	"pulsedos/internal/topo"
	"pulsedos/internal/trace"
)

// Environment abstracts the two evaluation topologies (dumbbell and
// test-bed) behind the operations every experiment needs.
type Environment interface {
	// Sim exposes the environment's event kernel.
	Sim() *sim.Kernel
	// Goodput exposes the shared per-flow delivery account.
	Goodput() *trace.FlowAccount
	// Target exposes the bottleneck link the attack pulses congest.
	Target() *netem.Link
	// Flows exposes the victim TCP senders.
	Flows() []*tcp.Sender
	// StartFlows schedules all victim flows.
	StartFlows() error
	// StopFlows halts all victim flows.
	StopFlows()
	// Attach wires an attack generator into the topology.
	Attach(train attack.Train) (*attack.Generator, error)
	// ModelParams assembles the analytic-model view of the topology.
	ModelParams() model.Params
	// TimeoutModel assembles the TO-state model configuration (buffer size,
	// victims' RTO floor, attack packet size) for the timeout-extended
	// analysis.
	TimeoutModel() model.TimeoutModelConfig
}

// Interface conformance: the graph layer's environment is the one
// implementation behind every topology.
var _ Environment = (*topo.Environment)(nil)

// engineEnv is implemented by environments that may be driven by the
// conservative parallel engine rather than a single kernel. Run probes for
// it and swaps the executor when the engine is non-nil (a serial graph build
// satisfies the interface but returns nil); everything else — taps, goodput
// accounting, attack attachment — is engine-agnostic.
type engineEnv interface {
	Engine() *sim.Engine
}

// RunOptions parameterizes one scenario execution. The timeline is: victim
// flows start (jittered) at the virtual origin and warm up for Warmup; the
// attack (if any) begins at Warmup; goodput and traffic series are measured
// over [Warmup, Warmup+Measure].
type RunOptions struct {
	Warmup  time.Duration
	Measure time.Duration

	// Train, when non-nil, is replayed starting at Warmup.
	Train *attack.Train

	// RateBin, when positive, collects a binned traffic series of every
	// packet class arriving at the bottleneck.
	RateBin time.Duration

	// MeasureJitter attaches an RFC 3550-style inter-departure jitter meter
	// to the bottleneck's data traffic (§2.3's "increase in jitter"). It is
	// the one observer that pins the bottleneck to the golden link schedule
	// (netem.DepartureTap).
	MeasureJitter bool

	// CaptureSRTT records every victim's smoothed RTT estimate at run end
	// (RunResult.SRTTs, in env.Flows() order) — the calibration input the
	// gain sweeps feed back into the analytic model.
	CaptureSRTT bool

	// CaptureCwnd registers a congestion-window observer on flow CwndFlow
	// before the run starts; samples land in RunResult.Cwnd. The observer
	// only appends to the result, so a tapped run's delivery observables are
	// byte-identical to an untapped one.
	CaptureCwnd bool
	CwndFlow    int

	// QueueBin, when positive, samples the bottleneck queue depth every
	// QueueBin of virtual time across the measurement window. The sampler
	// events are pure reads: they shift kernel sequence numbers uniformly
	// and never perturb delivery observables.
	QueueBin time.Duration

	// Progress, when non-nil, is called after each executed timeline slice
	// with the completed fraction in (0, 1]. RunCtx slices the run into
	// runChunks horizons to poll cancellation; the slicing is invisible to
	// results — both the serial kernel and the conservative engine produce
	// identical output for any monotone RunUntil horizon sequence.
	Progress func(frac float64)
}

// RunResult carries everything a scenario produced.
type RunResult struct {
	Delivered   uint64         // victim bytes delivered in the window
	PerFlow     map[int]uint64 // per-flow victim bytes
	Rate        *trace.RateSeries
	Drops       *trace.DropCounter
	Jitter      *trace.JitterMeter
	AttackStats attack.GeneratorStats

	Timeouts       uint64 // victim RTO expirations (TO state entries)
	FastRecoveries uint64 // victim fast-recovery episodes (FR state entries)
	Retransmits    uint64
	SegmentsSent   uint64

	// Tap captures, populated only when the matching RunOptions ask for them.
	SRTTs []float64     // per-flow smoothed RTT (s), env.Flows() order
	Cwnd  []CwndSample  // congestion-window trace of RunOptions.CwndFlow
	Queue []QueueSample // bottleneck queue-depth samples

	// Mice carries the structured-workload outcome when the run executed the
	// mice study instead of the long-lived-flow schedule.
	Mice *MiceResult
}

// QueueSample is one bottleneck queue-depth reading.
type QueueSample struct {
	TimeSec float64
	Depth   int
}

// Run executes one scenario on a freshly built environment.
func Run(env Environment, opt RunOptions) (*RunResult, error) {
	return RunCtx(context.Background(), env, opt)
}

// runChunks is the number of horizons RunCtx and RunMiceCtx slice the
// timeline into (runSlices): each slice ends with a cancellation poll and a
// progress callback. 64 keeps the poll overhead invisible (a RunUntil call
// is just a loop bound) while an aborted HTTP request or an exceeded wall
// budget stops a run within ~2% of its timeline instead of running it to
// completion.
const runChunks = 64

// RunCtx is Run with cancellation: the timeline executes in runChunks
// monotone RunUntil slices, and a done context aborts between slices with
// the context's error. Results are byte-identical to a single-horizon Run —
// the kernel fires events by (when, at, seq) regardless of how the horizon
// advances, and the parallel engine's window boundaries never reach output.
func RunCtx(ctx context.Context, env Environment, opt RunOptions) (*RunResult, error) {
	if env == nil {
		return nil, errors.New("experiments: nil environment")
	}
	if opt.Measure <= 0 {
		return nil, fmt.Errorf("experiments: measurement window must be positive, got %v", opt.Measure)
	}
	k := env.Sim()
	warmup := sim.FromDuration(opt.Warmup)
	end := warmup + sim.FromDuration(opt.Measure)

	res := &RunResult{Drops: trace.NewDropCounter()}
	env.Target().AddTap(res.Drops)
	if opt.RateBin > 0 {
		res.Rate = trace.NewRateSeries(sim.FromDuration(opt.RateBin))
		res.Rate.SetStart(warmup)
		env.Target().AddTap(res.Rate)
	}
	if opt.MeasureJitter {
		res.Jitter = trace.NewJitterMeter()
		res.Jitter.SetStart(warmup)
		env.Target().AddTap(res.Jitter)
	}
	if opt.CaptureCwnd {
		flows := env.Flows()
		if opt.CwndFlow < 0 || opt.CwndFlow >= len(flows) {
			return nil, fmt.Errorf("experiments: cwnd flow %d out of range [0,%d)", opt.CwndFlow, len(flows))
		}
		flows[opt.CwndFlow].Observe(func(now sim.Time, cwnd float64) {
			res.Cwnd = append(res.Cwnd, CwndSample{TimeSec: now.Seconds(), Cwnd: cwnd})
		})
	}
	if opt.QueueBin > 0 {
		if pe, ok := env.(engineEnv); ok && pe.Engine() != nil {
			return nil, errors.New("experiments: queue sampling needs a serial environment")
		}
		q := env.Target().Queue()
		for t := warmup; t <= end; t += sim.FromDuration(opt.QueueBin) {
			if t == 0 {
				continue
			}
			at := t
			if _, err := k.At(at, func() {
				res.Queue = append(res.Queue, QueueSample{TimeSec: at.Seconds(), Depth: q.Len()})
			}); err != nil {
				return nil, err
			}
		}
	}
	env.Goodput().SetStart(warmup)

	var gen *attack.Generator
	if opt.Train != nil && len(opt.Train.Pulses) > 0 {
		var err error
		gen, err = env.Attach(*opt.Train)
		if err != nil {
			return nil, err
		}
		if err := gen.Start(warmup); err != nil {
			return nil, err
		}
	}
	if err := env.StartFlows(); err != nil {
		return nil, err
	}
	runUntil := k.RunUntil
	if pe, ok := env.(engineEnv); ok {
		if eng := pe.Engine(); eng != nil {
			runUntil = eng.RunUntil
		}
	}
	if err := runSlices(ctx, end, runUntil, opt.Progress); err != nil {
		return nil, err
	}
	env.StopFlows()
	if gen != nil {
		gen.Stop()
		res.AttackStats = gen.Stats()
	}

	res.Delivered = env.Goodput().Total()
	res.PerFlow = env.Goodput().PerFlow()
	if opt.CaptureSRTT {
		flows := env.Flows()
		res.SRTTs = make([]float64, len(flows))
		for i, s := range flows {
			res.SRTTs[i] = s.SRTT()
		}
	}
	for _, s := range env.Flows() {
		st := s.Stats()
		res.Timeouts += st.Timeouts
		res.FastRecoveries += st.FastRetransmits
		res.Retransmits += st.Retransmits
		res.SegmentsSent += st.SegmentsSent
	}
	return res, nil
}

// runSlices advances the timeline to end through runUntil in runChunks
// monotone horizons. Before each slice a done ctx aborts with its error;
// after each, progress (when non-nil) receives the completed fraction.
func runSlices(ctx context.Context, end sim.Time, runUntil func(sim.Time) error, progress func(frac float64)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	step := end / runChunks
	if step <= 0 {
		step = end
	}
	for t := step; ; t += step {
		if t > end {
			t = end
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("experiments: run canceled before %v of %v: %w",
				t.Duration(), end.Duration(), err)
		}
		if err := runUntil(t); err != nil {
			return fmt.Errorf("experiments: run: %w", err)
		}
		if progress != nil {
			progress(float64(t) / float64(end))
		}
		if t == end {
			return nil
		}
	}
}

// PulsesFor reports the pulse count needed to span the given measurement
// window at the given period, with two periods of slack so the train outlasts
// the window.
func PulsesFor(measure time.Duration, period time.Duration) int {
	if period <= 0 {
		return 1
	}
	n := int(measure/period) + 2
	if n < 2 {
		n = 2
	}
	return n
}
