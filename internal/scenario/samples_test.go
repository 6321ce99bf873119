package scenario

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pulsedos/internal/topo"
)

// shippedKeys pins the content address of every shipped scenario on the
// current engine version. These change ONLY when a scenario document changes
// semantically, the canonicalization changes, or experiments.EngineVersion is
// bumped — each of which deliberately invalidates the run cache. If this
// table fails unexpectedly, canonical hashing has destabilized and cached
// results no longer correspond to their keys; update the pins only alongside
// the change that legitimately moved them. parkinglot.json is the one
// shipped document with "workers" above 1, which its key carries along with
// the sharded-schedule stamp.
var shippedKeys = map[string]string{
	"cross-traffic.json":     "057b0efe7991e38f8f2d08684c68231cce1ba4e6c68c3af0db3c8535b953b889",
	"fig6-gain-sweep.json":   "c2e0575b5a75f333d0b2d4f0e311b285836b115e471e3460d8ce26c081a92acd",
	"defended-jittered.json": "bf35dc196ad02045e2ceac9372caa3d4378c08460aa41d5b4c5226f351259dc1",
	"fig8-style.json":        "d6c5203ee24c56cff2028953df80905f426e85b3c7ca7141db08f78694bd987a",
	"flood-baseline.json":    "7ab920ac54e932aca0e81ffa266dabcb626e72c44e0d4e6883ef7571755592c6",
	"parkinglot.json":        "014196f4ea1482eefe7f51e5336bb20c2945cad21e437fdae29c7a3931d5c4f4",
	"shrew-resonance.json":   "231065f044a7f41b1148c94392b905befa446d48eb4cf3805acd7c48afa47735",
	"testbed-fig12.json":     "fe11ac633093667e8298f1904839b8dbb0a50b4acc7b431feb3b65519ffc0026",
}

// TestShippedScenariosAreValid round-trips every JSON file under scenarios/:
// it must parse, validate, build through topo.Build, produce a train, and
// survive a short smoke simulation (the shipped windows are shrunk so the
// suite stays fast).
func TestShippedScenariosAreValid(t *testing.T) {
	dir := filepath.Join("..", "..", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("only %d shipped scenarios", len(entries))
	}
	present := map[string]bool{}
	for _, e := range entries {
		present[e.Name()] = true
	}
	for name := range shippedKeys {
		if !present[name] {
			t.Errorf("pinned scenario %s no longer shipped; drop its key pin deliberately", name)
		}
	}
	for _, e := range entries {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			cfg, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			key, err := Key(cfg)
			if err != nil {
				t.Fatalf("canonical key: %v", err)
			}
			want, pinned := shippedKeys[e.Name()]
			switch {
			case !pinned:
				t.Errorf("no pinned canonical key for %s; add %q to shippedKeys", e.Name(), key)
			case key != want:
				t.Errorf("canonical key drifted:\n got %s\nwant %s\n(cache entries keyed under the old hash are now unreachable)", key, want)
			}
			// A sweep carrier is not runnable itself; expand it and exercise
			// its first point. Plain documents expand to themselves.
			points, err := cfg.Expand()
			if err != nil {
				t.Fatalf("expand: %v", err)
			}
			if cfg.Sweeps() && len(points) < 2 {
				t.Fatalf("sweep carrier expanded to %d points", len(points))
			}
			run := points[0]
			env, err := run.Build()
			if err != nil {
				t.Fatal(err)
			}
			if cl, ok := env.(interface{ Close() }); ok {
				defer cl.Close()
			}
			if _, err := run.Train(env); err != nil {
				t.Fatal(err)
			}
			if testing.Short() {
				return
			}
			// Smoke-run the scenario on compressed windows: the same topology
			// and attack shape, 2 virtual seconds of measurement.
			run.WarmupSec = 1
			run.MeasureSec = 2
			res, err := run.Run()
			if err != nil {
				t.Fatalf("smoke run: %v", err)
			}
			if res.Delivered == 0 {
				t.Error("smoke run delivered no victim bytes")
			}
			if run.Attack != nil && res.AttackStats.PacketsSent == 0 {
				t.Error("smoke run: attack never fired")
			}
		})
	}
}

// TestShippedScenariosRunFused runs every point of every shipped scenario on
// compressed windows, with measureJitter on wherever Validate allows it, and
// requires every link the build wired to run the fused schedule: no tap a
// document can attach — the departure-observing jitter meter included —
// moves a link onto the golden reference path.
func TestShippedScenariosRunFused(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every shipped scenario point")
	}
	shipped, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(shipped) == 0 {
		t.Fatalf("no shipped scenarios: %v", err)
	}
	jittered := 0
	for _, path := range shipped {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			cfg, err := Load(f)
			if err != nil {
				t.Fatal(err)
			}
			points, err := cfg.Expand()
			if err != nil {
				t.Fatalf("expand: %v", err)
			}
			for i, pt := range points {
				pt.WarmupSec, pt.MeasureSec = 1, 2
				pt.Jitter = true
				if pt.Validate() != nil {
					pt.Jitter = false
				}
				env, err := pt.Build()
				if err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
				te := env.(*topo.Environment)
				_, err = pt.runOn(context.Background(), env, nil)
				te.Close()
				if err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
				if pt.Jitter {
					jittered++
				}
				for _, l := range te.Links() {
					if l.GoldenPath() {
						t.Errorf("point %d (measureJitter %v): link %s runs the golden schedule", i, pt.Jitter, l.Name())
					}
				}
			}
		})
	}
	if jittered == 0 {
		t.Error("no shipped scenario point ran with measureJitter")
	}
}
