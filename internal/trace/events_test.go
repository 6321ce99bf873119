package trace

import (
	"errors"
	"strings"
	"testing"

	"pulsedos/internal/netem"
	"pulsedos/internal/sim"
)

func TestEventTraceRecordsAndFormats(t *testing.T) {
	var sb strings.Builder
	et := NewEventTrace("bottleneck", &sb)
	p := &netem.Packet{Flow: 3, Class: netem.ClassData, Size: 1040, Seq: 42}
	et.OnArrive(p, 1234567*sim.Microsecond)
	et.OnDepart(p, 1235000*sim.Microsecond)
	et.OnDrop(&netem.Packet{Flow: -1, Class: netem.ClassAttack, Size: 1000}, 2*sim.Second)

	want := []string{
		"+ 1.234567 bottleneck data 3 42 1040",
		"- 1.235000 bottleneck data 3 42 1040",
		"d 2.000000 bottleneck attack -1 0 1000",
	}
	if got := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n"); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("streamed lines = %q, want %q", got, want)
	}
	if et.WriteErrors() != 0 {
		t.Errorf("write errors = %d", et.WriteErrors())
	}
}

func TestEventTraceStartTrim(t *testing.T) {
	var sb strings.Builder
	et := NewEventTrace("l", &sb)
	et.SetStart(sim.Second)
	p := &netem.Packet{Flow: 1, Class: netem.ClassData, Size: 100}
	et.OnArrive(p, 500*sim.Millisecond)
	et.OnArrive(p, 1500*sim.Millisecond)
	if got, want := sb.String(), "+ 1.500000 l data 1 0 100\n"; got != want {
		t.Errorf("trace after trim = %q, want %q", got, want)
	}
}

// failWriter fails every write.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestEventTraceWriterFailureCounted(t *testing.T) {
	et := NewEventTrace("l", failWriter{})
	p := &netem.Packet{Flow: 1, Class: netem.ClassData, Size: 100}
	et.OnArrive(p, 0)
	et.OnDrop(p, 0)
	et.OnDepart(p, 0)
	if et.WriteErrors() != 3 {
		t.Errorf("write errors = %d", et.WriteErrors())
	}
}
