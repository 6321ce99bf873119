// Package topo is the declarative topology layer: a Graph value describes
// routers, duplex trunks (rate / delay / queue discipline), flow groups, and
// attack ingress points, and one generic Build wires any such graph into a
// running environment — a serial kernel or a sharded sim.Engine, chosen by
// Options.Workers, with the shard assignment computed by Plan.
//
// The paper evaluated PDoS on exactly two hand-wired topologies (the ns-2
// dumbbell of Fig. 5 and the Dummynet test-bed of Fig. 11). Making topology
// data instead of code unlocks the scenarios those pages could not run:
// parking-lot multi-bottleneck chains, dumbbells with cross-traffic, and
// anything scenario JSON can spell. Generators for the first three live in
// generators.go; they only return Graphs — every environment in the repo is
// produced by the single Build path.
//
// Equivalence contract: Build reproduces the hand-wired builders it replaced
// byte-identically (CSV-level) at every pinned worker count. That pins down the parts
// of Build that look arbitrary: the rng draw order (one child rng per
// RED/ARED trunk queue, in trunk declaration order, forward before reverse;
// start jitter drawn in global flow order), the integer arithmetic deriving
// per-flow access delays, and the per-flow wiring order. The contract is
// enforced by digests those builders recorded
// (internal/experiments/testdata/topo.sha256) and by the serial ≡ sharded
// suites in internal/experiments and internal/topo.
package topo

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
)

// QueueKind selects a trunk queue discipline.
type QueueKind int

const (
	// QueueDropTail is a plain FIFO with tail drop.
	QueueDropTail QueueKind = iota
	// QueueRED is Random Early Detection (the paper's AQM).
	QueueRED
	// QueueARED is Adaptive RED (max_p self-tuning).
	QueueARED
)

// QueueSpec describes one trunk queue.
type QueueSpec struct {
	Kind  QueueKind
	Limit int // capacity in packets; must be >= 1

	// ReserveRand makes Build consume one child rng draw for this queue even
	// when Kind is QueueDropTail. The legacy Dummynet pipe API seeded its
	// queue unconditionally; byte-equivalence with the legacy test-bed's
	// tail-drop ablation depends on matching that draw order.
	ReserveRand bool
}

// MarshalJSON keeps the retired RED-parameter override in the encoding,
// always null: scenario cache keys hash the resolved Graph's JSON, and every
// key stays what it was.
func (q QueueSpec) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Kind        QueueKind
		Limit       int
		RED         *struct{}
		ReserveRand bool
	}{q.Kind, q.Limit, nil, q.ReserveRand})
}

// TrunkSpec is one duplex inter-router link: a forward direction carrying
// data (rate, queue) and a reverse direction carrying ACKs (rev rate, rev
// queue), both with the same propagation delay.
type TrunkSpec struct {
	Name string
	From int // router index, forward data direction From -> To
	To   int

	Rate    float64 // forward bandwidth, bits per second
	RevRate float64 // reverse bandwidth; 0 = Rate
	Delay   time.Duration

	Queue    QueueSpec // forward queue (the congestible resource)
	RevQueue QueueSpec // reverse queue (typically generous tail drop)
}

// Flow-group fidelity models.
const (
	// ModelPacket is per-packet TCP simulation — the default ("" means packet).
	ModelPacket = "packet"
	// ModelFluid aggregates the group into one deterministic rate process
	// (tcp.Macroflow): no packets are simulated, the group's fair share is
	// carved out of the trunk links it traverses, and its goodput responds to
	// the loss fraction the packet-accurate traffic measures at the group's
	// bottleneck. Background tier for million-flow scenarios.
	ModelFluid = "fluid"
)

// FlowGroup places a population of TCP flows between two routers. Each flow
// gets four private access links (sender->ingress, egress->receiver, and the
// reverse pair), all at AccessRate with AccessQueue-packet tail-drop queues.
//
// The per-flow access propagation delay comes from one of two modes:
//
//   - RTT spread (AccessOWD zero): flow j of the group gets a propagation RTT
//     interpolated across [RTTMin, RTTMax], realized by splitting the
//     non-trunk budget across the two access hops — the dumbbell's model.
//   - Fixed (AccessOWD positive): every flow's access hop has exactly this
//     delay and the RTT follows from the path — the test-bed's model.
type FlowGroup struct {
	Flows   int
	Ingress int // router index where the senders attach
	Egress  int // router index where the receivers attach

	AccessRate  float64
	RTTMin      time.Duration
	RTTMax      time.Duration
	AccessOWD   time.Duration
	AccessQueue int // access queue capacity, packets; 0 = 1024

	// Model selects the group's fidelity tier: "" or ModelPacket for
	// per-packet simulation, ModelFluid for the aggregate fluid tier. A fluid
	// group contributes no Senders/Recvs slots and draws no start jitter; its
	// goodput is credited under flow ids above the packet population.
	Model string
}

// AttackPoint is an attacker ingress: a fat link into a router, from which
// pulses follow the forward default route to the graph's sink.
type AttackPoint struct {
	Router int
	Rate   float64 // ingress bandwidth, bits per second
	Delay  time.Duration
}

// Graph is the declarative topology. Router indices are positions in
// Routers; trunk and attack indices are positions in their slices.
type Graph struct {
	Name    string
	Routers []string // diagnostic names, one per router
	Trunks  []TrunkSpec
	Groups  []FlowGroup
	Attacks []AttackPoint

	// SinkRouter terminates attack traffic: a 10 Gbps zero-delay link into a
	// counting sink is the router's forward default. It must be a leaf (no
	// outgoing forward trunks), so the sink default cannot clobber a trunk
	// default.
	SinkRouter int

	// Target is the trunk index of the measured bottleneck: its forward link
	// is Environment.Target(), its rate the analytic model's bottleneck, its
	// queue limit the timeout model's buffer.
	Target int

	TCP              tcp.Config
	Seed             uint64
	StartSpread      time.Duration // flow start times jittered over [0, spread)
	AttackPacketSize int

	// HeapKernel forces the binary-heap scheduler (serial only; the sharded
	// engine always runs the timing wheel).
	HeapKernel bool

	// GoldenLinks pins every link to the golden two-event schedule (one
	// tx-done event plus one delivery event per packet) instead of the fused
	// single-event default — the reference side of the fusion equivalence
	// suites (see DESIGN.md §14). Observables are byte-identical either way;
	// only the kernel event count differs — which is also why the field is
	// excluded from the canonical scenario encoding: golden and fused runs
	// of one graph share a content-address.
	GoldenLinks bool `json:"-"`
}

// defaultAccessQueue is the per-flow access-link buffer used when a group
// does not override it (the legacy builders' constant).
const defaultAccessQueue = 1024

// flowInfo is the per-flow derivation shared by Plan and Build.
type flowInfo struct {
	group   int
	ingress int
	egress  int
	path    []int // trunk indices, forward traversal order
	rttSec  float64
	owd     sim.Time // per-access-hop propagation delay
	rate    float64
	queue   int
}

// fluidInfo is the per-group derivation for fluid-model groups: the capacity
// share carved out of the trunks along the path, the trunk realizing the
// group's end-to-end bottleneck (where the loss signal is observed), and a
// representative RTT for the aggregate's control loop.
type fluidInfo struct {
	group  int
	flows  int
	trunk  int     // path trunk with the smallest carved share
	share  float64 // end-to-end capacity share, bits per second
	rttSec float64
}

// graphInfo caches everything analyze derives from a Graph.
type graphInfo struct {
	flows      []flowInfo
	fluid      []fluidInfo // fluid-model groups, in group declaration order
	effRate    []float64   // per trunk: forward rate minus the fluid carve-out
	groupPaths [][]int
	defaultFwd []int   // router -> first outgoing trunk, -1 = none
	defaultRev []int   // router -> first incoming trunk, -1 = none
	attackPath [][]int // per attack point: trunks to the sink along defaults
}

// analyze validates the graph and derives flow paths, per-flow delays, and
// default routes. Every structural error Build can report originates here.
func analyze(g *Graph) (*graphInfo, error) {
	nr := len(g.Routers)
	if nr < 2 {
		return nil, errors.New("topo: graph needs >= 2 routers")
	}
	if len(g.Trunks) == 0 {
		return nil, errors.New("topo: graph needs >= 1 trunk")
	}
	if g.SinkRouter < 0 || g.SinkRouter >= nr {
		return nil, fmt.Errorf("topo: sink router %d out of range", g.SinkRouter)
	}
	if g.Target < 0 || g.Target >= len(g.Trunks) {
		return nil, fmt.Errorf("topo: target trunk %d out of range", g.Target)
	}
	for i, t := range g.Trunks {
		if t.From < 0 || t.From >= nr || t.To < 0 || t.To >= nr || t.From == t.To {
			return nil, fmt.Errorf("topo: trunk %d (%s) endpoints %d->%d invalid", i, t.Name, t.From, t.To)
		}
		if t.Rate <= 0 || t.RevRate < 0 {
			return nil, fmt.Errorf("topo: trunk %d (%s) needs a positive rate", i, t.Name)
		}
		if t.Delay < 0 {
			return nil, fmt.Errorf("topo: trunk %d (%s) has negative delay", i, t.Name)
		}
		if t.Queue.Limit < 1 || t.RevQueue.Limit < 1 {
			return nil, fmt.Errorf("topo: trunk %d (%s) needs queue limits >= 1", i, t.Name)
		}
	}

	info := &graphInfo{
		groupPaths: make([][]int, len(g.Groups)),
		defaultFwd: make([]int, nr),
		defaultRev: make([]int, nr),
	}
	for r := 0; r < nr; r++ {
		info.defaultFwd[r] = -1
		info.defaultRev[r] = -1
	}
	for i, t := range g.Trunks {
		if info.defaultFwd[t.From] == -1 {
			info.defaultFwd[t.From] = i
		}
		if info.defaultRev[t.To] == -1 {
			info.defaultRev[t.To] = i
		}
	}
	if info.defaultFwd[g.SinkRouter] != -1 {
		return nil, fmt.Errorf("topo: sink router %q must be a leaf (it has an outgoing forward trunk)",
			g.Routers[g.SinkRouter])
	}

	total := 0
	for gi, grp := range g.Groups {
		if grp.Flows < 1 {
			return nil, fmt.Errorf("topo: group %d needs >= 1 flow, got %d", gi, grp.Flows)
		}
		if grp.Model != "" && grp.Model != ModelPacket && grp.Model != ModelFluid {
			return nil, fmt.Errorf("topo: group %d has unknown model %q", gi, grp.Model)
		}
		if grp.Ingress < 0 || grp.Ingress >= nr || grp.Egress < 0 || grp.Egress >= nr || grp.Ingress == grp.Egress {
			return nil, fmt.Errorf("topo: group %d endpoints %d->%d invalid", gi, grp.Ingress, grp.Egress)
		}
		if grp.AccessRate <= 0 {
			return nil, fmt.Errorf("topo: group %d needs a positive access rate", gi)
		}
		path := shortestPath(g, grp.Ingress, grp.Egress)
		if path == nil {
			return nil, fmt.Errorf("topo: group %d has no forward path %d->%d", gi, grp.Ingress, grp.Egress)
		}
		info.groupPaths[gi] = path
		prop := pathDelay(g, path)
		if grp.AccessOWD <= 0 {
			if grp.RTTMax < grp.RTTMin || grp.RTTMin < 2*prop {
				return nil, fmt.Errorf("topo: group %d: invalid RTT range [%v, %v] for path propagation %v",
					gi, grp.RTTMin, grp.RTTMax, prop)
			}
		}
		if grp.Model != ModelFluid {
			total += grp.Flows
		}
	}
	if total < 1 {
		return nil, errors.New("topo: graph needs >= 1 packet-accurate flow")
	}

	// Fluid carve-out: per trunk, count the packet and fluid populations
	// crossing it; each trunk traversed by fluid flows cedes the fluid tier's
	// fair share of its forward rate, leaving the packet tier contending for
	// the residual. Reverse (ACK) capacity is not carved — fluid aggregates
	// emit no ACKs and trunk reverse paths are sized generously.
	packetOn := make([]int, len(g.Trunks))
	fluidOn := make([]int, len(g.Trunks))
	for gi, grp := range g.Groups {
		for _, t := range info.groupPaths[gi] {
			if grp.Model == ModelFluid {
				fluidOn[t] += grp.Flows
			} else {
				packetOn[t] += grp.Flows
			}
		}
	}
	info.effRate = make([]float64, len(g.Trunks))
	for ti := range g.Trunks {
		rate := g.Trunks[ti].Rate
		if fluidOn[ti] > 0 {
			if packetOn[ti] == 0 {
				return nil, fmt.Errorf("topo: trunk %d (%s) carries only fluid flows; "+
					"the fluid tier needs packet-accurate traffic on every trunk it traverses for its loss signal",
					ti, g.Trunks[ti].Name)
			}
			rate *= float64(packetOn[ti]) / float64(packetOn[ti]+fluidOn[ti])
		}
		info.effRate[ti] = rate
	}

	info.flows = make([]flowInfo, 0, total)
	for gi, grp := range g.Groups {
		path := info.groupPaths[gi]
		propT := sim.Time(0)
		for _, t := range path {
			propT += sim.FromDuration(g.Trunks[t].Delay)
		}
		if grp.Model == ModelFluid {
			// The aggregate's control RTT: the fixed-delay formula when set,
			// otherwise the midpoint of the group's RTT spread.
			var rttSec float64
			if grp.AccessOWD > 0 {
				rttSec = (2 * (pathDelay(g, path) + 2*grp.AccessOWD)).Seconds()
			} else {
				rttSec = (grp.RTTMin + (grp.RTTMax-grp.RTTMin)/2).Seconds()
			}
			share, trunk := fluidShare(g, info, fluidOn, gi, path)
			info.fluid = append(info.fluid, fluidInfo{
				group:  gi,
				flows:  grp.Flows,
				trunk:  trunk,
				share:  share,
				rttSec: rttSec,
			})
			continue
		}
		queue := grp.AccessQueue
		if queue == 0 {
			queue = defaultAccessQueue
		}
		for j := 0; j < grp.Flows; j++ {
			fi := flowInfo{
				group:   gi,
				ingress: grp.Ingress,
				egress:  grp.Egress,
				path:    path,
				rate:    grp.AccessRate,
				queue:   queue,
			}
			if grp.AccessOWD > 0 {
				// Fixed access delay: the test-bed model, identical RTTs.
				fi.owd = sim.FromDuration(grp.AccessOWD)
				fi.rttSec = (2 * (pathDelay(g, path) + 2*grp.AccessOWD)).Seconds()
			} else {
				// RTT spread: the dumbbell model. The integer arithmetic
				// mirrors the legacy builder exactly (equivalence contract).
				rtt := grp.RTTMin
				if grp.Flows > 1 {
					rtt += time.Duration(int64(grp.RTTMax-grp.RTTMin) * int64(j) / int64(grp.Flows-1))
				}
				fi.rttSec = rtt.Seconds()
				fi.owd = (sim.FromDuration(rtt)/2 - propT) / 2
			}
			info.flows = append(info.flows, fi)
		}
	}

	info.attackPath = make([][]int, len(g.Attacks))
	for ai, ap := range g.Attacks {
		if ap.Router < 0 || ap.Router >= nr {
			return nil, fmt.Errorf("topo: attack point %d router %d out of range", ai, ap.Router)
		}
		if ap.Rate <= 0 {
			return nil, fmt.Errorf("topo: attack point %d needs a positive rate", ai)
		}
		path, err := defaultPathToSink(g, info, ap.Router)
		if err != nil {
			return nil, fmt.Errorf("topo: attack point %d: %w", ai, err)
		}
		info.attackPath[ai] = path
	}
	return info, nil
}

// shortestPath finds the hop-shortest forward path between two routers by
// BFS over the trunks in declaration order, so ties resolve to the lowest
// trunk indices deterministically. Returns the trunk index sequence, or nil.
func shortestPath(g *Graph, from, to int) []int {
	nr := len(g.Routers)
	prevTrunk := make([]int, nr)
	for r := range prevTrunk {
		prevTrunk[r] = -1
	}
	visited := make([]bool, nr)
	visited[from] = true
	queue := []int{from}
	for len(queue) > 0 {
		r := queue[0]
		queue = queue[1:]
		if r == to {
			break
		}
		for ti, t := range g.Trunks {
			if t.From != r || visited[t.To] {
				continue
			}
			visited[t.To] = true
			prevTrunk[t.To] = ti
			queue = append(queue, t.To)
		}
	}
	if !visited[to] {
		return nil
	}
	var rev []int
	for r := to; r != from; {
		t := prevTrunk[r]
		rev = append(rev, t)
		r = g.Trunks[t].From
	}
	path := make([]int, len(rev))
	for i, t := range rev {
		path[len(rev)-1-i] = t
	}
	return path
}

// defaultPathToSink walks the forward default chain from a router to the
// sink. Attack traffic is unrouted (negative flow id), so it can only follow
// defaults; the walk fails loudly when the chain dead-ends or loops.
func defaultPathToSink(g *Graph, info *graphInfo, from int) ([]int, error) {
	var path []int
	r := from
	for steps := 0; r != g.SinkRouter; steps++ {
		if steps > len(g.Trunks) {
			return nil, fmt.Errorf("default route from router %q loops before reaching the sink", g.Routers[from])
		}
		t := info.defaultFwd[r]
		if t == -1 {
			return nil, fmt.Errorf("default route from router %q dead-ends at %q before the sink",
				g.Routers[from], g.Routers[r])
		}
		path = append(path, t)
		r = g.Trunks[t].To
	}
	if len(path) == 0 {
		return nil, fmt.Errorf("attack router %q is the sink itself", g.Routers[from])
	}
	return path, nil
}

// pathDelay sums trunk propagation delays along a path.
func pathDelay(g *Graph, path []int) time.Duration {
	var d time.Duration
	for _, t := range path {
		d += g.Trunks[t].Delay
	}
	return d
}

// fluidShare resolves a fluid group's end-to-end capacity share — the
// smallest per-trunk carve along its path, capped by the group's aggregate
// access rate — and the trunk realizing that minimum (ties resolve to the
// earliest path hop), where the aggregate observes its loss signal.
func fluidShare(g *Graph, info *graphInfo, fluidOn []int, gi int, path []int) (float64, int) {
	grp := &g.Groups[gi]
	share, trunk := 0.0, path[0]
	for i, ti := range path {
		carve := g.Trunks[ti].Rate - info.effRate[ti]
		s := carve * float64(grp.Flows) / float64(fluidOn[ti])
		if i == 0 || s < share {
			share, trunk = s, ti
		}
	}
	if lim := grp.AccessRate * float64(grp.Flows); share > lim {
		share = lim
	}
	return share, trunk
}
