package topo_test

import (
	"strings"
	"testing"
	"time"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
	"pulsedos/internal/tcp"
	"pulsedos/internal/topo"
)

// twoRouterGraph is a minimal explicit graph with hand-computable delays:
// one 5 ms trunk, a fixed 3 ms access-delay flow group, a 2 ms attacker.
func twoRouterGraph(flows int) topo.Graph {
	return topo.Graph{
		Name:    "unit",
		Routers: []string{"a", "b"},
		Trunks: []topo.TrunkSpec{{
			Name:     "trunk",
			From:     0,
			To:       1,
			Rate:     10 * netem.Mbps,
			Delay:    5 * time.Millisecond,
			Queue:    topo.QueueSpec{Kind: topo.QueueDropTail, Limit: 50},
			RevQueue: topo.QueueSpec{Kind: topo.QueueDropTail, Limit: 4096},
		}},
		Groups: []topo.FlowGroup{{
			Flows:      flows,
			Ingress:    0,
			Egress:     1,
			AccessRate: 50 * netem.Mbps,
			AccessOWD:  3 * time.Millisecond,
		}},
		Attacks:          []topo.AttackPoint{{Router: 0, Rate: netem.Gbps, Delay: 2 * time.Millisecond}},
		SinkRouter:       1,
		Target:           0,
		TCP:              tcp.DefaultConfig(),
		AttackPacketSize: 1000,
	}
}

// TestPlanSerialDegenerate: one worker means everything on shard 0 and no
// lookahead — Build of such a plan is exactly the serial construction.
func TestPlanSerialDegenerate(t *testing.T) {
	for _, workers := range []int{1, 0, -3} {
		plan, err := topo.Plan(twoRouterGraph(4), workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if plan.Workers != 1 {
			t.Fatalf("workers %d: kept %d shards", workers, plan.Workers)
		}
		if plan.Lookahead != 0 {
			t.Errorf("serial plan has lookahead %v", plan.Lookahead)
		}
		for _, s := range [][]int{plan.SendShard, plan.RecvShard} {
			for i, v := range s {
				if v != 0 {
					t.Fatalf("serial plan placed component %d on shard %d", i, v)
				}
			}
		}
	}
}

// TestPlanClamp: worker counts beyond two per flow — one shard per half —
// would leave shards empty, so the planner clamps instead.
func TestPlanClamp(t *testing.T) {
	plan, err := topo.Plan(twoRouterGraph(1), 16)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Workers > 3 {
		t.Errorf("1 flow over 16 workers kept %d shards", plan.Workers)
	}
}

// TestPlanLoadBalance pins the balance invariants on a non-dumbbell graph:
// sender halves land on even shards and receiver halves on odd ones, no
// shard beyond the two cores is starved, and the greedy unit-increment
// balance keeps the half counts of such shards of one parity within one of
// each other.
func TestPlanLoadBalance(t *testing.T) {
	g := topo.ParkingLot(topo.DefaultParkingLotConfig()) // 6 long + 9 cross flows
	for _, workers := range []int{2, 3, 4, 8} {
		plan, err := topo.Plan(g, workers)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		counts := make([]int, plan.Workers)
		for half, shards := range [][]int{plan.SendShard, plan.RecvShard} {
			for i, s := range shards {
				if s < 0 || s >= plan.Workers || s%2 != half {
					t.Fatalf("workers %d: half %d of flow %d on shard %d", workers, half, i, s)
				}
				counts[s]++
			}
		}
		for parity := 0; parity < 2; parity++ {
			min, max := -1, -1
			for s := 2 + parity; s < plan.Workers; s += 2 {
				c := counts[s]
				if c == 0 {
					t.Errorf("workers %d: shard %d owns no flow halves", workers, s)
				}
				if min == -1 || c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if max-min > 1 {
				t.Errorf("workers %d: shard populations of parity %d spread %d..%d", workers, parity, min, max)
			}
		}
	}
}

// TestPlanLookahead: the plan's lookahead is the minimum propagation delay
// over cross-shard edges. At 2 workers every flow half sits beside the core
// its access links feed and the attacker beside the trunk, so only the 5 ms
// trunk hops are cut; more workers move halves off the cores and cut their
// 3 ms access hops too.
func TestPlanLookahead(t *testing.T) {
	g := twoRouterGraph(4)
	for _, c := range []struct {
		workers int
		want    time.Duration
		edge    string
	}{{2, 5 * time.Millisecond, "trunk"}, {4, 3 * time.Millisecond, "access hop"}} {
		plan, err := topo.Plan(g, c.workers)
		if err != nil {
			t.Fatal(err)
		}
		if want := sim.FromDuration(c.want); plan.Lookahead != want {
			t.Errorf("workers %d: lookahead %v, want %v (%s)", c.workers, plan.Lookahead, want, c.edge)
		}
	}
}

// TestPlanLookaheadMatchesEngine: the window Build hands the engine is the
// plan's lookahead.
func TestPlanLookaheadMatchesEngine(t *testing.T) {
	g := twoRouterGraph(4)
	env, err := topo.Build(g, topo.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	eng := env.Engine()
	if eng == nil {
		t.Fatal("sharded build returned no engine")
	}
	if eng.Lookahead() != env.Plan.Lookahead {
		t.Errorf("engine lookahead %v, plan %v", eng.Lookahead(), env.Plan.Lookahead)
	}
}

// TestPlanZeroLookaheadError: a cross-shard edge with no propagation delay
// cannot exist under a conservative engine; the planner must say so rather
// than deadlock, and the serial plan of the same graph must still work. A
// zero-delay trunk is such an edge; a zero-delay attacker is not, since its
// hop is never cut.
func TestPlanZeroLookaheadError(t *testing.T) {
	g := twoRouterGraph(4)
	g.Attacks[0].Delay = 0
	if _, err := topo.Plan(g, 2); err != nil {
		t.Errorf("zero-delay attacker rejected: %v", err)
	}
	g.Trunks[0].Delay = 0
	if _, err := topo.Plan(g, 2); err == nil || !strings.Contains(err.Error(), "lookahead") {
		t.Errorf("zero-delay cross edge accepted (err %v)", err)
	}
	if _, err := topo.Plan(g, 1); err != nil {
		t.Errorf("serial plan rejected: %v", err)
	}
}
