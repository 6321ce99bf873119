package topo

import (
	"fmt"

	"pulsedos/internal/sim"
)

// This file partitions a graph over the conservative parallel engine's
// shards. Every cross-shard edge is a link propagation hop, so its delay is
// the lookahead, and the plan cuts each flow at the trunks:
//
//   - the forward core (shard 0) owns every forward trunk and every attack
//     point: the serialized resources all flows contend for cannot be split
//     without losing the drop coupling, and keeping the whole forward chain
//     on one shard makes multi-bottleneck hops shard-local;
//   - the reverse core (shard 1) owns every reverse trunk (the ACK path)
//     and the attack sink;
//   - each flow is cut in two halves: the sender half (the sender, its
//     acc-fwd-in and acc-rev-in links) on an even shard, the receiver half
//     (the receiver, its acc-fwd-out and acc-rev-out links) on an odd one,
//     by a greedy balance over estimated per-segment event loads.
//
// At 2 workers every half sits beside the core its access links feed, so
// the only cut edges are the trunks' own propagation hops and the lookahead
// is the trunk delay. Every data packet then fires events on both sides
// within one trunk delay, so each window's work splits between the two
// shards; a plan that keeps whole flows together leaves the window's
// contended core on one of them. More workers add even shards for sender
// halves and odd ones for receiver halves, whose access hops are then cut
// too. Boundaries never cross the zero-delay router fan-out, and the
// engine's window is the minimum delay over the edges actually cut.

// Estimated event loads of the cores per flow-trunk crossing, in units of
// one flow half's own work, which seed the greedy half balance. The totals
// are fitted to the benchmark's attack-10k document at 4 workers, where a
// sender half and a receiver half each fired about 325 events, the forward
// core with the attacker about 363 per flow and the reverse core with the
// sink about 236; each core's total is split two to one between its own
// work and the attack's, unmeasured.
const (
	fwdCoreLoad = 0.75
	attackLoad  = 0.375
	revCoreLoad = 0.5
	sinkLoad    = 0.25
)

// ShardPlan assigns every component of a graph to a shard. The forward
// core, shard 0, owns every forward trunk and attack point; the reverse
// core, shard 1 (shard 0 when serial), every reverse trunk and the attack
// sink.
type ShardPlan struct {
	Workers   int
	SendShard []int // per flow (global id): shard of the sender half
	RecvShard []int // per flow (global id): shard of the receiver half

	// Lookahead is the conservative window the engine will run with: the
	// minimum propagation delay over all cross-shard edges. Zero when the
	// plan is serial.
	Lookahead sim.Time
}

// revCore reports the reverse core's shard.
func (p *ShardPlan) revCore() int { return min(p.Workers-1, 1) }

// Plan partitions a graph over the given worker count. Workers are clamped
// to two shards per flow, one per half (two when the graph has no packet
// flows): beyond that extra shards would sit empty. A plan with Workers == 1 is the
// serial degenerate: every component on shard 0, no cross-shard edges,
// Build wires exactly the serial construction. Plans with Workers > 1 fail
// when any cross-shard edge has no positive propagation delay (no
// lookahead).
func Plan(g Graph, workers int) (ShardPlan, error) {
	info, err := analyze(&g)
	if err != nil {
		return ShardPlan{}, err
	}
	return planWith(&g, info, workers)
}

// planWith is Plan over a pre-analyzed graph (Build reuses the analysis).
func planWith(g *Graph, info *graphInfo, workers int) (ShardPlan, error) {
	flows := len(info.flows)
	workers = min(max(workers, 1), 2*max(flows, 1))
	p := ShardPlan{
		Workers:   workers,
		SendShard: make([]int, flows),
		RecvShard: make([]int, flows),
	}
	rev := p.revCore()

	// Greedy balance, seeded with the cores' estimated loads. The core
	// loads scale with flow-trunk crossings, so a multi-hop path weighs on
	// the cores once per trunk it crosses.
	crossings := 0
	for i := range info.flows {
		crossings += len(info.flows[i].path)
	}
	weight := make([]float64, workers)
	f := float64(crossings)
	weight[0] += fwdCoreLoad * f
	weight[rev] += revCoreLoad * f
	if len(g.Attacks) > 0 {
		weight[0] += attackLoad * f
		weight[rev] += sinkLoad * f
	}
	// lightest returns the least-loaded shard of first, first+2, ...
	lightest := func(first int) int {
		best := first
		for s := first + 2; s < workers; s += 2 {
			if weight[s] < weight[best] {
				best = s
			}
		}
		weight[best]++
		return best
	}
	for i := 0; i < flows; i++ {
		p.SendShard[i] = lightest(0)
		p.RecvShard[i] = lightest(rev)
	}

	if workers > 1 {
		for _, e := range crossEdges(g, info, &p) {
			if e.minDelay <= 0 {
				return ShardPlan{}, fmt.Errorf(
					"topo: cross-shard edge into router %q has zero propagation delay — no lookahead; run serial",
					g.Routers[e.key.router])
			}
			if p.Lookahead == 0 || e.minDelay < p.Lookahead {
				p.Lookahead = e.minDelay
			}
		}
	}
	return p, nil
}

// edgeKey identifies one boundary edge: all traffic from shard src landing
// at shard dst's replica of a router shares one outbox, whose declared
// lookahead is the minimum delay over the links that use it.
type edgeKey struct {
	src, dst, router int
}

type crossEdge struct {
	key      edgeKey
	minDelay sim.Time
}

// crossEdges enumerates the boundary edges a build of this plan will create,
// in a fixed deterministic order (flows, then trunk defaults), deduplicated
// by key with the minimum delay retained. Plan derives the engine lookahead
// from it; Build creates one outbox per entry, in order. Attack ingress is
// never cut: attack points sit on the forward core with the trunks they
// feed.
func crossEdges(g *Graph, info *graphInfo, p *ShardPlan) []crossEdge {
	var edges []crossEdge
	index := make(map[edgeKey]int)
	add := func(src, dst, router int, delay sim.Time) {
		if src == dst {
			return
		}
		k := edgeKey{src: src, dst: dst, router: router}
		if i, ok := index[k]; ok {
			if delay < edges[i].minDelay {
				edges[i].minDelay = delay
			}
			return
		}
		index[k] = len(edges)
		edges = append(edges, crossEdge{key: k, minDelay: delay})
	}

	rev := p.revCore()
	for fid := range info.flows {
		fi := &info.flows[fid]
		send, recv := p.SendShard[fid], p.RecvShard[fid]
		first, last := fi.path[0], fi.path[len(fi.path)-1]
		// Access hops into the cores: acc-fwd-in from the sender half,
		// acc-rev-out from the receiver half.
		add(send, 0, fi.ingress, fi.owd)
		add(recv, rev, fi.egress, fi.owd)
		// Trunk hops out of the cores: the last forward trunk delivers to
		// the receiver half, the first reverse trunk to the sender half;
		// hops between trunks stay on their core.
		add(0, recv, g.Trunks[last].To, sim.FromDuration(g.Trunks[last].Delay))
		add(rev, send, g.Trunks[first].From, sim.FromDuration(g.Trunks[first].Delay))
	}
	// Default (attack) traffic leaving the forward core for the sink.
	for ti := range g.Trunks {
		if r := g.Trunks[ti].To; r == g.SinkRouter {
			add(0, rev, r, sim.FromDuration(g.Trunks[ti].Delay))
		}
	}
	return edges
}
