package topo

import (
	"errors"
	"fmt"
	"strconv"

	"pulsedos/internal/netem"
	"pulsedos/internal/rng"
	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
	"pulsedos/internal/trace"
)

// Options parameterizes Build.
type Options struct {
	// Workers shards the graph across the conservative parallel engine.
	// Values <= 1 build the serial kernel. A sharded run matches the serial
	// one except where two boundary events tie exactly (DESIGN.md §9).
	Workers int
}

// Build wires a graph into a running environment — the one construction path
// behind every topology in the repo. Flows are created but not started; call
// Environment.StartFlows.
//
// Routers are stateless demultiplexers, so under sharding each shard gets
// lightweight replicas holding only its own routes, and every shard boundary
// is crossed at the link level: a link whose far end lives on another shard
// hands packets to an outbox (portal.go in netem) whose declared lookahead
// is the link's propagation delay.
func Build(g Graph, opts Options) (*Environment, error) {
	info, err := analyze(&g)
	if err != nil {
		return nil, err
	}
	if err := g.TCP.Validate(); err != nil {
		return nil, err
	}
	plan, err := planWith(&g, info, opts.Workers)
	if err != nil {
		return nil, err
	}
	if g.HeapKernel && plan.Workers > 1 {
		return nil, errors.New("topo: the heap-kernel baseline is serial only")
	}
	flows := len(info.flows)
	env := &Environment{
		Graph:   g,
		Plan:    plan,
		Account: trace.NewFlowAccountSized(flows + len(info.fluid)),
		Sink:    &netem.Sink{},
		Senders: make([]*tcp.Sender, flows),
		Recvs:   make([]*tcp.Receiver, flows),
		RTTs:    make([]float64, flows),
		rand:    rng.New(g.Seed),
		effRate: info.effRate,
	}
	for i := range info.flows {
		env.RTTs[i] = info.flows[i].rttSec
	}
	b := &builder{g: &env.Graph, info: info, plan: &env.Plan, env: env}
	if err := b.scaffold(); err != nil {
		return nil, err
	}
	if err := b.wireTrunks(); err != nil {
		return nil, err
	}
	if err := b.wireSinkAndAttacks(); err != nil {
		return nil, err
	}
	b.wireDemuxes()
	if err := b.wireFlows(); err != nil {
		return nil, err
	}
	if err := b.wireMacroflows(); err != nil {
		return nil, err
	}
	for _, t := range b.tables {
		if t != nil {
			env.tables = append(env.tables, t)
		}
	}
	env.Kernel = b.kernels[env.Plan.TrunkFwd[g.Target]]
	env.Bottle = b.fwdLinks[g.Target]
	env.Pools = b.pools
	env.eng = b.eng
	env.routers = b.routers
	return env, nil
}

// builder carries the intermediate wiring state of one Build call.
type builder struct {
	g    *Graph
	info *graphInfo
	plan *ShardPlan
	env  *Environment

	eng      *sim.Engine
	kernels  []*sim.Kernel
	pools    []*netem.PacketPool
	routers  [][]*netem.Router // [shard][router] replicas
	ports    [][]int32         // [shard][router] inbox port ids (sharded only)
	outbox   map[edgeKey]*sim.Outbox
	fwdLinks []*netem.Link // per trunk
	revLinks []*netem.Link
	tables   []*tcp.FlowTable // per shard
	slots    []int            // per shard: next free table slot
}

// scaffold creates kernels, pools, router replicas, inbox ports, and the
// boundary outboxes (one per cross edge, in crossEdges order — edge ids are
// the final tie-break in the engine's barrier merge).
func (b *builder) scaffold() error {
	w := b.plan.Workers
	b.kernels = make([]*sim.Kernel, w)
	if w > 1 {
		b.eng = sim.NewEngine(w)
		for s := 0; s < w; s++ {
			b.kernels[s] = b.eng.Shard(s).Kernel()
		}
	} else if b.g.HeapKernel {
		b.kernels[0] = sim.NewHeapKernel()
	} else {
		b.kernels[0] = sim.New()
	}
	b.pools = make([]*netem.PacketPool, w)
	b.routers = make([][]*netem.Router, w)
	for s := 0; s < w; s++ {
		b.pools[s] = netem.NewPacketPool()
		b.routers[s] = make([]*netem.Router, len(b.g.Routers))
		for r := range b.g.Routers {
			name := b.g.Routers[r]
			if w > 1 {
				name = name + "#" + strconv.Itoa(s)
			}
			b.routers[s][r] = netem.NewRouter(name)
		}
	}
	if w == 1 {
		return nil
	}
	b.ports = make([][]int32, w)
	for s := 0; s < w; s++ {
		b.ports[s] = make([]int32, len(b.g.Routers))
		for r := range b.g.Routers {
			b.ports[s][r] = b.eng.Shard(s).RegisterPort(netem.NewInbox(b.pools[s], b.routers[s][r]))
		}
	}
	b.outbox = make(map[edgeKey]*sim.Outbox, 4*w)
	for _, e := range crossEdges(b.g, b.info, b.plan) {
		ob, err := b.eng.NewOutbox(b.eng.Shard(e.key.src), b.eng.Shard(e.key.dst),
			b.ports[e.key.dst][e.key.router], e.minDelay)
		if err != nil {
			return err
		}
		b.outbox[e.key] = ob
	}
	return nil
}

// remote resolves the outbox for traffic from shard src landing at shard
// dst's replica of a router; nil means the hop is shard-local. Every
// crossing Build wires was enumerated by crossEdges, so a miss is a planner
// bug, not a runtime condition.
func (b *builder) remote(src, dst, router int) *sim.Outbox {
	if src == dst {
		return nil
	}
	ob, ok := b.outbox[edgeKey{src: src, dst: dst, router: router}]
	if !ok {
		panic("topo: cross-shard hop without a planned boundary edge")
	}
	return ob
}

// newLink constructs one link, honoring the graph's GoldenLinks knob: when
// set, every link is pinned to the golden two-event schedule instead of the
// fused single-event default, giving the fusion equivalence suites a
// reference build that differs only in scheduling path (see DESIGN.md §14).
func (b *builder) newLink(k *sim.Kernel, name string, rate float64, delay sim.Time, queue netem.Queue, dst netem.Node) (*netem.Link, error) {
	l, err := netem.NewLink(k, name, rate, delay, queue, dst)
	if err != nil {
		return nil, err
	}
	if b.g.GoldenLinks {
		l.ForceGoldenPath()
	}
	b.env.links = append(b.env.links, l)
	return l, nil
}

// buildQueue constructs one trunk queue. This is the only build-time rng
// consumer: RED and Adaptive RED take one child rng each, in trunk
// declaration order (forward before reverse) — the draw order the legacy
// builders used, which the equivalence contract freezes.
func buildQueue(spec *QueueSpec, rand *rng.Source, linkRate float64) (netem.Queue, error) {
	switch spec.Kind {
	case QueueDropTail:
		if spec.ReserveRand {
			_ = rand.Split()
		}
		return netem.NewDropTail(spec.Limit), nil
	case QueueRED, QueueARED:
		cfg := netem.DefaultREDConfig(spec.Limit)
		child := rand.Split()
		if spec.Kind == QueueARED {
			return netem.NewAdaptiveRED(cfg, child, linkRate), nil
		}
		return netem.NewRED(cfg, child, linkRate), nil
	}
	return nil, fmt.Errorf("topo: unknown queue kind %d", spec.Kind)
}

// wireTrunks creates the duplex trunk links in declaration order and
// installs each router's default routes (first outgoing trunk forward, first
// incoming trunk reverse — on the replica of the shard that owns the link).
func (b *builder) wireTrunks() error {
	b.fwdLinks = make([]*netem.Link, len(b.g.Trunks))
	b.revLinks = make([]*netem.Link, len(b.g.Trunks))
	for ti := range b.g.Trunks {
		t := &b.g.Trunks[ti]
		sf, sr := b.plan.TrunkFwd[ti], b.plan.TrunkRev[ti]
		// Forward trunks run at the effective rate: the declared rate minus
		// the fluid tier's carve-out (identical to t.Rate when no fluid group
		// crosses this trunk), so packet-accurate traffic contends for
		// exactly the residual capacity.
		fq, err := buildQueue(&t.Queue, b.env.rand, b.info.effRate[ti])
		if err != nil {
			return err
		}
		fwd, err := b.newLink(b.kernels[sf], t.Name+"-fwd", b.info.effRate[ti], sim.FromDuration(t.Delay),
			fq, b.routers[sf][t.To])
		if err != nil {
			return err
		}
		b.fwdLinks[ti] = fwd
		if b.info.defaultFwd[t.From] == ti {
			b.routers[sf][t.From].SetDefault(netem.DirForward, fwd)
		}
		revRate := t.RevRate
		if revRate == 0 {
			revRate = t.Rate
		}
		rq, err := buildQueue(&t.RevQueue, b.env.rand, revRate)
		if err != nil {
			return err
		}
		rev, err := b.newLink(b.kernels[sr], t.Name+"-rev", revRate, sim.FromDuration(t.Delay),
			rq, b.routers[sr][t.From])
		if err != nil {
			return err
		}
		b.revLinks[ti] = rev
		if b.info.defaultRev[t.To] == ti {
			b.routers[sr][t.To].SetDefault(netem.DirReverse, rev)
		}
	}
	return nil
}

// wireSinkAndAttacks terminates attack traffic in a counting sink behind the
// sink router and builds each attacker's ingress link on its own shard.
func (b *builder) wireSinkAndAttacks() error {
	sinkLink, err := b.newLink(b.kernels[b.plan.SinkShard], "attack-sink", 10*netem.Gbps, 0,
		netem.NewDropTail(1<<20), b.env.Sink)
	if err != nil {
		return err
	}
	b.routers[b.plan.SinkShard][b.g.SinkRouter].SetDefault(netem.DirForward, sinkLink)

	b.env.attackIn = make([]*netem.Link, len(b.g.Attacks))
	b.env.attackK = make([]*sim.Kernel, len(b.g.Attacks))
	for ai := range b.g.Attacks {
		ap := &b.g.Attacks[ai]
		as := b.plan.AttackShard[ai]
		name := "attacker"
		if ai > 0 {
			name = "attacker-" + strconv.Itoa(ai)
		}
		l, err := b.newLink(b.kernels[as], name, ap.Rate, sim.FromDuration(ap.Delay),
			netem.NewDropTail(1<<20), b.routers[as][ap.Router])
		if err != nil {
			return err
		}
		l.SetPool(b.pools[as])
		first := b.info.attackPath[ai][0]
		if ob := b.remote(as, b.plan.TrunkFwd[first], ap.Router); ob != nil {
			l.SetRemote(netem.NewSingleRemote(ob))
		}
		b.env.attackIn[ai] = l
		b.env.attackK[ai] = b.kernels[as]
	}
	return nil
}

// wireDemuxes attaches the per-trunk boundary demultiplexers: deliveries off
// a trunk fan out by flow id to each flow's next-hop shard, and default
// (attack) traffic follows the forward default chain. A nil entry keeps the
// serial local-delivery path.
//
//pdos:hotpath
func (b *builder) wireDemuxes() {
	if b.plan.Workers == 1 {
		return
	}
	flows := len(b.info.flows)
	byFlowFwd := make([][]*sim.Outbox, len(b.g.Trunks))
	byFlowRev := make([][]*sim.Outbox, len(b.g.Trunks))
	for ti := range b.g.Trunks {
		byFlowFwd[ti] = make([]*sim.Outbox, flows)
		byFlowRev[ti] = make([]*sim.Outbox, flows)
	}
	for f := 0; f < flows; f++ {
		fi := &b.info.flows[f]
		s := b.plan.FlowShard[f]
		for j := 0; j < len(fi.path); j++ {
			t := fi.path[j]
			dst := s
			if j+1 < len(fi.path) {
				dst = b.plan.TrunkFwd[fi.path[j+1]]
			}
			byFlowFwd[t][f] = b.remote(b.plan.TrunkFwd[t], dst, b.g.Trunks[t].To)
			dst = s
			if j > 0 {
				dst = b.plan.TrunkRev[fi.path[j-1]]
			}
			byFlowRev[t][f] = b.remote(b.plan.TrunkRev[t], dst, b.g.Trunks[t].From)
		}
	}
	for ti := range b.g.Trunks {
		r := b.g.Trunks[ti].To
		var deflt *sim.Outbox
		if r == b.g.SinkRouter {
			deflt = b.remote(b.plan.TrunkFwd[ti], b.plan.SinkShard, r)
		} else if nt := b.info.defaultFwd[r]; nt >= 0 {
			deflt = b.remote(b.plan.TrunkFwd[ti], b.plan.TrunkFwd[nt], r)
		}
		b.fwdLinks[ti].SetRemote(netem.NewDemuxRemote(byFlowFwd[ti], deflt))
		b.revLinks[ti].SetRemote(netem.NewDemuxRemote(byFlowRev[ti], nil))
	}
}

// wireFlows builds per-shard FlowTables and wires every flow in global id
// order — the order StartFlows later draws jitter in.
func (b *builder) wireFlows() error {
	w := b.plan.Workers
	counts := make([]int, w)
	for f := range b.info.flows {
		counts[b.plan.FlowShard[f]]++
	}
	b.tables = make([]*tcp.FlowTable, w)
	b.slots = make([]int, w)
	for s := 0; s < w; s++ {
		if counts[s] == 0 {
			continue
		}
		table, err := tcp.NewFlowTable(b.kernels[s], b.g.TCP, counts[s])
		if err != nil {
			return err
		}
		b.tables[s] = table
	}
	for f := range b.info.flows {
		if err := b.wireFlow(f); err != nil {
			return err
		}
	}
	return nil
}

// wireMacroflows builds one fluid aggregate per fluid-model group, on the
// kernel that owns the group's bottleneck trunk, observing that trunk's
// forward link. Aggregates are credited under flow ids just above the packet
// population, in group declaration order.
func (b *builder) wireMacroflows() error {
	packetFlows := len(b.info.flows)
	for mi := range b.info.fluid {
		fl := &b.info.fluid[mi]
		cfg := tcp.MacroflowConfig{
			Flow:      packetFlows + mi,
			Flows:     fl.flows,
			RTT:       fl.rttSec,
			Share:     fl.share,
			MSS:       b.g.TCP.MSS,
			IncreaseA: b.g.TCP.IncreaseA,
			DecreaseB: b.g.TCP.DecreaseB,
			InitCwnd:  b.g.TCP.InitialCwnd,
			MaxCwnd:   b.g.TCP.MaxWindow,
		}
		m, err := tcp.NewMacroflow(b.kernels[b.plan.TrunkFwd[fl.trunk]], cfg,
			b.fwdLinks[fl.trunk], b.env.Account)
		if err != nil {
			return fmt.Errorf("topo: group %d: %w", fl.group, err)
		}
		b.env.macros = append(b.env.macros, m)
	}
	return nil
}

// wireFlow assembles one flow: four private access links, the TCP endpoint
// pair, and its per-flow routes. The wiring order per flow (fwd-in, rev-out,
// bind sender, bind receiver, fwd-out, rev-in, routes) mirrors the legacy
// builders — it fixes nothing observable at runtime, but keeps construction
// reviewable against them.
//
//pdos:hotpath
func (b *builder) wireFlow(f int) error {
	fi := &b.info.flows[f]
	s := b.plan.FlowShard[f]
	k := b.kernels[s]
	id := strconv.Itoa(f)
	first := fi.path[0]
	last := fi.path[len(fi.path)-1]

	fwdIn, err := b.newLink(k, "acc-fwd-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue),
		b.routers[s][fi.ingress])
	if err != nil {
		return err
	}
	fwdIn.SetPool(b.pools[s])
	if ob := b.remote(s, b.plan.TrunkFwd[first], fi.ingress); ob != nil {
		fwdIn.SetRemote(netem.NewSingleRemote(ob))
	}
	revOut, err := b.newLink(k, "acc-rev-out-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue),
		b.routers[s][fi.egress])
	if err != nil {
		return err
	}
	revOut.SetPool(b.pools[s])
	if ob := b.remote(s, b.plan.TrunkRev[last], fi.egress); ob != nil {
		revOut.SetRemote(netem.NewSingleRemote(ob))
	}

	sender, err := b.tables[s].BindSender(b.slots[s], f, fwdIn)
	if err != nil {
		return err
	}
	receiver, err := b.tables[s].BindReceiver(b.slots[s], f, revOut, b.env.Account)
	if err != nil {
		return err
	}
	b.slots[s]++
	b.env.Senders[f] = sender
	b.env.Recvs[f] = receiver

	fwdOut, err := b.newLink(k, "acc-fwd-out-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue), receiver)
	if err != nil {
		return err
	}
	revIn, err := b.newLink(k, "acc-rev-in-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue), sender)
	if err != nil {
		return err
	}
	b.routers[s][fi.egress].AddRoute(f, netem.DirForward, fwdOut)
	b.routers[s][fi.ingress].AddRoute(f, netem.DirReverse, revIn)
	b.pinRoutes(f)
	return nil
}

// pinRoutes installs per-flow trunk routes wherever the flow's next hop is
// not the processing replica's default — the multi-trunk generalization of
// "everything follows the bottleneck default". Single-path graphs whose
// flows ride the default chain (dumbbell, test-bed) install nothing here.
//
//pdos:hotpath
func (b *builder) pinRoutes(f int) {
	fi := &b.info.flows[f]
	path := fi.path
	if b.info.defaultFwd[fi.ingress] != path[0] {
		b.routers[b.plan.TrunkFwd[path[0]]][fi.ingress].AddRoute(f, netem.DirForward, b.fwdLinks[path[0]])
	}
	for j := 0; j+1 < len(path); j++ {
		r := b.g.Trunks[path[j]].To
		next := path[j+1]
		if b.info.defaultFwd[r] != next {
			b.routers[b.plan.TrunkFwd[next]][r].AddRoute(f, netem.DirForward, b.fwdLinks[next])
		}
	}
	if b.info.defaultRev[fi.egress] != path[len(path)-1] {
		t := path[len(path)-1]
		b.routers[b.plan.TrunkRev[t]][fi.egress].AddRoute(f, netem.DirReverse, b.revLinks[t])
	}
	for j := len(path) - 1; j > 0; j-- {
		r := b.g.Trunks[path[j]].From
		prev := path[j-1]
		if b.info.defaultRev[r] != prev {
			b.routers[b.plan.TrunkRev[prev]][r].AddRoute(f, netem.DirReverse, b.revLinks[prev])
		}
	}
}
