package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pulsedos/internal/sim"
)

// flagDocs are documents pdos-sim's flag path compiles at its defaults: the
// attacked run on each -topology kind, and the dumbbell baseline with the
// srtt tap that calibrates the analytic column.
var flagDocs = []string{
	`{"name":"pdos-sim","topology":{"kind":"dumbbell","flows":25,"workers":1},"attack":{"kind":"aimd","rateMbps":35,"extentMs":75,"gamma":0.5},"warmupSec":10,"measureSec":30,"seed":1}`,
	`{"name":"pdos-sim","topology":{"kind":"dumbbell","flows":25,"workers":1},"measure":{"taps":["srtt"]},"warmupSec":10,"measureSec":30,"seed":1}`,
	`{"name":"pdos-sim","topology":{"kind":"testbed","flows":25,"workers":1},"attack":{"kind":"aimd","rateMbps":35,"extentMs":75,"gamma":0.5},"warmupSec":10,"measureSec":30,"seed":1}`,
	`{"name":"pdos-sim","topology":{"kind":"parkinglot","flows":25,"workers":1},"attack":{"kind":"aimd","rateMbps":35,"extentMs":75,"gamma":0.5},"warmupSec":10,"measureSec":30,"seed":1}`,
	`{"name":"pdos-sim","topology":{"kind":"graph","flows":0,"workers":1,"graph":{"routers":["S","M","R"],
		"trunks":[{"name":"bottleneck","from":0,"to":1,"rateMbps":15,"delayMs":5,"queuePackets":150},
		          {"name":"egress","from":1,"to":2,"rateMbps":100,"delayMs":5,"queuePackets":1000,"dropTail":true}],
		"groups":[{"flows":25,"ingress":0,"egress":2,"accessRateMbps":50,"rttMinMs":30,"rttMaxMs":460},
		          {"flows":5,"ingress":0,"egress":1,"accessRateMbps":50,"rttMinMs":20,"rttMaxMs":460}],
		"attacks":[{"router":0,"rateMbps":1000}],"sink":2}},
	  "attack":{"kind":"aimd","rateMbps":35,"extentMs":75,"gamma":0.5},"warmupSec":10,"measureSec":30,"seed":1}`,
}

// FuzzLoad drives arbitrary bytes through Load, Key and Expand. Load never
// panics; every loaded document has a key, and keys the same after a
// json.Marshal → Load round trip; and every point it expands to validates,
// keys and resolves its graph, with its run windows and graph delays all
// non-negative virtual times. The corpus seeds are the shipped scenarios,
// the pdos-sim flag documents, a rate that overflows float64 once scaled to
// bps, and a warm-up that overflows sim.Time in nanoseconds — Validate
// rejects both (they once loaded with no key, or wrapped negative).
func FuzzLoad(f *testing.F) {
	shipped, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil || len(shipped) == 0 {
		f.Fatalf("no shipped scenarios: %v", err)
	}
	for _, path := range shipped {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, doc := range flagDocs {
		f.Add([]byte(doc))
	}
	f.Add([]byte(`{"topology":{"kind":"dumbbell","bottleneckMbps":1e303},"measureSec":1}`))
	f.Add([]byte(`{"topology":{"kind":"dumbbell"},"warmupSec":1e12,"measureSec":1}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		cfg, err := Load(bytes.NewReader(raw))
		if err != nil {
			return
		}
		key, err := Key(cfg)
		if err != nil {
			t.Fatalf("loaded document has no key: %v", err)
		}
		buf, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		again, err := Load(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("reload of %s: %v", buf, err)
		}
		if got, err := Key(again); got != key || err != nil {
			t.Fatalf("key %q became %q (%v) after a round trip through %s", key, got, err, buf)
		}
		points, err := cfg.Expand()
		if err != nil {
			t.Fatalf("expand: %v", err)
		}
		for _, pt := range points {
			if err := pt.Validate(); err != nil {
				t.Fatalf("point %s: %v", pt.Name, err)
			}
			if _, err := Key(pt); err != nil {
				t.Fatalf("point %s has no key: %v", pt.Name, err)
			}
			checkVirtualTimes(t, pt)
			checkSeries(t, pt)
		}
	})
}

// checkSeries requires every binned series a valid document requests to
// fit: its bin converts to at least 1 ns, and the measurement window holds
// at most maxSeriesBins of it.
func checkSeries(t *testing.T, cfg Config) {
	t.Helper()
	opt := cfg.runOptions()
	series := []struct {
		name      string
		requested bool
		bin       time.Duration
	}{
		{"rate", cfg.RateBinMs > 0, opt.RateBin},
		{"queue", cfg.Measure.HasTap("queue"), opt.QueueBin},
	}
	for _, s := range series {
		if s.requested && (s.bin <= 0 || opt.Measure/s.bin > maxSeriesBins) {
			t.Fatalf("point %s: %s bin %v over a %v window does not fit", cfg.Name, s.name, s.bin, opt.Measure)
		}
	}
}

// checkVirtualTimes requires a valid document's run windows and its resolved
// graph's delays to be non-negative virtual times. A field too long for
// sim.Time wraps negative when converted, which Validate must reject.
func checkVirtualTimes(t *testing.T, cfg Config) {
	t.Helper()
	g, err := cfg.Graph()
	if err != nil {
		t.Fatalf("point %s has no graph: %v", cfg.Name, err)
	}
	opt := cfg.runOptions()
	type named struct {
		name string
		d    time.Duration
	}
	times := []named{
		{"warm-up", opt.Warmup},
		{"measure", opt.Measure},
		{"run end", opt.Warmup + opt.Measure},
		{"rate bin", opt.RateBin},
		{"queue bin", opt.QueueBin},
		{"tcp rtoMin", g.TCP.RTOMin},
	}
	if w := cfg.Workload; w != nil {
		times = append(times, named{"workload span", time.Duration(w.ArrivalSpanSec * float64(time.Second))})
	}
	for i, tr := range g.Trunks {
		times = append(times, named{fmt.Sprintf("trunk %d delay", i), tr.Delay})
	}
	for i, grp := range g.Groups {
		times = append(times,
			named{fmt.Sprintf("group %d rttMin", i), grp.RTTMin},
			named{fmt.Sprintf("group %d rttMax", i), grp.RTTMax},
			named{fmt.Sprintf("group %d access owd", i), grp.AccessOWD})
	}
	for i, a := range g.Attacks {
		times = append(times, named{fmt.Sprintf("attack %d delay", i), a.Delay})
	}
	for _, tm := range times {
		if sim.FromDuration(tm.d) < 0 {
			t.Fatalf("point %s: %s is %v, a negative virtual time", cfg.Name, tm.name, tm.d)
		}
	}
}
