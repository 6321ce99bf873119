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
	env.Kernel = b.kernels[0]
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
	sendSlot []int            // per shard: next free sender slot
	recvSlot []int            // per shard: next free receiver slot
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

// wireTrunks creates the duplex trunk links in declaration order, forward
// links on the forward core and reverse links on the reverse core, and
// installs each router's default routes (first outgoing trunk forward, first
// incoming trunk reverse — on the replica of the core that owns the link).
func (b *builder) wireTrunks() error {
	b.fwdLinks = make([]*netem.Link, len(b.g.Trunks))
	b.revLinks = make([]*netem.Link, len(b.g.Trunks))
	sf, sr := 0, b.plan.revCore()
	for ti := range b.g.Trunks {
		t := &b.g.Trunks[ti]
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
// sink router, on the reverse core, and builds each attacker's ingress link
// on the forward core beside the trunks it feeds.
func (b *builder) wireSinkAndAttacks() error {
	sink := b.plan.revCore()
	sinkLink, err := b.newLink(b.kernels[sink], "attack-sink", 10*netem.Gbps, 0,
		netem.NewDropTail(1<<20), b.env.Sink)
	if err != nil {
		return err
	}
	b.routers[sink][b.g.SinkRouter].SetDefault(netem.DirForward, sinkLink)

	b.env.attackIn = make([]*netem.Link, len(b.g.Attacks))
	for ai := range b.g.Attacks {
		ap := &b.g.Attacks[ai]
		name := "attacker"
		if ai > 0 {
			name = "attacker-" + strconv.Itoa(ai)
		}
		l, err := b.newLink(b.kernels[0], name, ap.Rate, sim.FromDuration(ap.Delay),
			netem.NewDropTail(1<<20), b.routers[0][ap.Router])
		if err != nil {
			return err
		}
		l.SetPool(b.pools[0])
		b.env.attackIn[ai] = l
	}
	return nil
}

// wireDemuxes attaches the per-trunk boundary demultiplexers: deliveries off
// a flow's last forward trunk fan out by flow id to its receiver half, those
// off its first reverse trunk to its sender half, and default (attack)
// traffic reaching the sink router crosses to the sink. A nil entry keeps
// the serial local-delivery path: hops between trunks stay on their core.
//
//pdos:hotpath
func (b *builder) wireDemuxes() {
	if b.plan.Workers == 1 {
		return
	}
	rev := b.plan.revCore()
	flows := len(b.info.flows)
	byFlowFwd := make([][]*sim.Outbox, len(b.g.Trunks))
	byFlowRev := make([][]*sim.Outbox, len(b.g.Trunks))
	for ti := range b.g.Trunks {
		byFlowFwd[ti] = make([]*sim.Outbox, flows)
		byFlowRev[ti] = make([]*sim.Outbox, flows)
	}
	for f := 0; f < flows; f++ {
		path := b.info.flows[f].path
		first, last := path[0], path[len(path)-1]
		byFlowFwd[last][f] = b.remote(0, b.plan.RecvShard[f], b.g.Trunks[last].To)
		byFlowRev[first][f] = b.remote(rev, b.plan.SendShard[f], b.g.Trunks[first].From)
	}
	for ti := range b.g.Trunks {
		var deflt *sim.Outbox
		if r := b.g.Trunks[ti].To; r == b.g.SinkRouter {
			deflt = b.remote(0, rev, r)
		}
		b.fwdLinks[ti].SetRemote(netem.NewDemuxRemote(byFlowFwd[ti], deflt))
		b.revLinks[ti].SetRemote(netem.NewDemuxRemote(byFlowRev[ti], nil))
	}
}

// wireFlows builds per-shard FlowTables and wires every flow in global id
// order — the order StartFlows later draws jitter in. A shard's table holds
// the sender halves and the receiver halves placed there, each in its own
// slot sequence, so it is sized to the larger of the two counts.
func (b *builder) wireFlows() error {
	w := b.plan.Workers
	senders, recvs := make([]int, w), make([]int, w)
	for f := range b.info.flows {
		senders[b.plan.SendShard[f]]++
		recvs[b.plan.RecvShard[f]]++
	}
	b.tables = make([]*tcp.FlowTable, w)
	b.sendSlot, b.recvSlot = make([]int, w), make([]int, w)
	for s := 0; s < w; s++ {
		n := max(senders[s], recvs[s])
		if n == 0 {
			continue
		}
		table, err := tcp.NewFlowTable(b.kernels[s], b.g.TCP, n)
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
		m, err := tcp.NewMacroflow(b.kernels[0], cfg,
			b.fwdLinks[fl.trunk], b.env.Account)
		if err != nil {
			return fmt.Errorf("topo: group %d: %w", fl.group, err)
		}
		b.env.macros = append(b.env.macros, m)
	}
	return nil
}

// wireFlow assembles one flow: four private access links, the TCP endpoint
// pair, and its per-flow routes, each half on its own shard's kernel, packet
// pool and router replicas. The wiring order per flow (fwd-in, rev-out,
// bind sender, bind receiver, fwd-out, rev-in, routes) mirrors the legacy
// builders — it fixes nothing observable at runtime, but keeps construction
// reviewable against them.
//
//pdos:hotpath
func (b *builder) wireFlow(f int) error {
	fi := &b.info.flows[f]
	ss, rs := b.plan.SendShard[f], b.plan.RecvShard[f]
	id := strconv.Itoa(f)

	fwdIn, err := b.newLink(b.kernels[ss], "acc-fwd-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue),
		b.routers[ss][fi.ingress])
	if err != nil {
		return err
	}
	fwdIn.SetPool(b.pools[ss])
	if ob := b.remote(ss, 0, fi.ingress); ob != nil {
		fwdIn.SetRemote(netem.NewDemuxRemote(nil, ob))
	}
	revOut, err := b.newLink(b.kernels[rs], "acc-rev-out-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue),
		b.routers[rs][fi.egress])
	if err != nil {
		return err
	}
	revOut.SetPool(b.pools[rs])
	if ob := b.remote(rs, b.plan.revCore(), fi.egress); ob != nil {
		revOut.SetRemote(netem.NewDemuxRemote(nil, ob))
	}

	sender, err := b.tables[ss].BindSender(b.sendSlot[ss], f, fwdIn)
	if err != nil {
		return err
	}
	receiver, err := b.tables[rs].BindReceiver(b.recvSlot[rs], f, revOut, b.env.Account)
	if err != nil {
		return err
	}
	b.sendSlot[ss]++
	b.recvSlot[rs]++
	b.env.Senders[f] = sender
	b.env.Recvs[f] = receiver

	fwdOut, err := b.newLink(b.kernels[rs], "acc-fwd-out-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue), receiver)
	if err != nil {
		return err
	}
	revIn, err := b.newLink(b.kernels[ss], "acc-rev-in-"+id, fi.rate, fi.owd, netem.NewDropTail(fi.queue), sender)
	if err != nil {
		return err
	}
	b.routers[rs][fi.egress].AddRoute(f, netem.DirForward, fwdOut)
	b.routers[ss][fi.ingress].AddRoute(f, netem.DirReverse, revIn)
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
	fwd, rev := b.routers[0], b.routers[b.plan.revCore()]
	if b.info.defaultFwd[fi.ingress] != path[0] {
		fwd[fi.ingress].AddRoute(f, netem.DirForward, b.fwdLinks[path[0]])
	}
	for j := 0; j+1 < len(path); j++ {
		r := b.g.Trunks[path[j]].To
		next := path[j+1]
		if b.info.defaultFwd[r] != next {
			fwd[r].AddRoute(f, netem.DirForward, b.fwdLinks[next])
		}
	}
	if b.info.defaultRev[fi.egress] != path[len(path)-1] {
		t := path[len(path)-1]
		rev[fi.egress].AddRoute(f, netem.DirReverse, b.revLinks[t])
	}
	for j := len(path) - 1; j > 0; j-- {
		r := b.g.Trunks[path[j]].From
		prev := path[j-1]
		if b.info.defaultRev[r] != prev {
			rev[r].AddRoute(f, netem.DirReverse, b.revLinks[prev])
		}
	}
}
