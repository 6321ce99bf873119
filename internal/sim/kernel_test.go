package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeConversions(t *testing.T) {
	tests := []struct {
		name string
		in   float64
		want Time
	}{
		{"zero", 0, 0},
		{"one second", 1, Second},
		{"fifty ms", 0.05, 50 * Millisecond},
		{"microsecond", 1e-6, Microsecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FromSeconds(tt.in); got != tt.want {
				t.Errorf("FromSeconds(%g) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
	if got := FromDuration(1500 * time.Millisecond); got != 1500*Millisecond {
		t.Errorf("FromDuration = %v", got)
	}
	if got := (2 * Second).Seconds(); got != 2 {
		t.Errorf("Seconds = %g", got)
	}
	if got := (3 * Second).Duration(); got != 3*time.Second {
		t.Errorf("Duration = %v", got)
	}
}

func TestTimeComparisons(t *testing.T) {
	a, b := Second, 2*Second
	if !a.Before(b) || b.Before(a) {
		t.Error("Before misordered")
	}
	if !b.After(a) || a.After(b) {
		t.Error("After misordered")
	}
	if a.Add(Second) != b {
		t.Error("Add broken")
	}
	if b.Sub(a) != Second {
		t.Error("Sub broken")
	}
	if (1500 * Millisecond).String() != "1.5s" {
		t.Errorf("String = %q", (1500 * Millisecond).String())
	}
}

func TestKernelOrdering(t *testing.T) {
	k := New()
	var got []int
	k.AfterTicks(3*Second, func() { got = append(got, 3) })
	k.AfterTicks(1*Second, func() { got = append(got, 1) })
	k.AfterTicks(2*Second, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if k.Now() != 3*Second {
		t.Errorf("final time = %v", k.Now())
	}
}

func TestKernelFIFOTies(t *testing.T) {
	k := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.AfterTicks(Second, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v", got)
		}
	}
}

func TestKernelAtPast(t *testing.T) {
	k := New()
	k.AfterTicks(Second, func() {})
	if !k.Step() {
		t.Fatal("no event")
	}
	if _, err := k.At(0, func() {}); !errors.Is(err, ErrPastTime) {
		t.Errorf("At(past) error = %v, want ErrPastTime", err)
	}
	// AfterTicks with negative delay clamps to now instead of failing.
	fired := false
	k.AfterTicks(-Second, func() { fired = true })
	k.Run()
	if !fired {
		t.Error("clamped AfterTicks never fired")
	}
}

func TestTimerCancel(t *testing.T) {
	k := New()
	fired := false
	tm := k.AfterTicks(Second, func() { fired = true })
	if !tm.Active() {
		t.Error("timer should be active")
	}
	if !tm.Cancel() {
		t.Error("first cancel should report true")
	}
	if tm.Cancel() {
		t.Error("second cancel should report false")
	}
	if tm.Active() {
		t.Error("cancelled timer still active")
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if tm.When() != Second {
		t.Errorf("When = %v", tm.When())
	}
}

func TestTimerCancelInterleaved(t *testing.T) {
	// Cancel one of several same-instant events from within another event.
	k := New()
	var got []string
	var tb Timer
	k.AfterTicks(Second, func() {
		got = append(got, "a")
		tb.Cancel()
	})
	tb = k.AfterTicks(Second, func() { got = append(got, "b") })
	k.AfterTicks(Second, func() { got = append(got, "c") })
	k.Run()
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Errorf("got %v, want [a c]", got)
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Active() {
		t.Error("zero timer reports active")
	}
	if tm.Cancel() {
		t.Error("zero timer cancel reported true")
	}
	if tm.When() != 0 {
		t.Errorf("zero timer When = %v", tm.When())
	}
}

// TestAfterTicksOverflow: a delta that would wrap now+delta negative must
// clamp to MaxTime and hand back a live, cancellable timer instead of a dead
// handle (the old kernel silently returned an inert &Timer{}).
func TestAfterTicksOverflow(t *testing.T) {
	k := New()
	k.AfterTicks(Second, func() {})
	if !k.Step() {
		t.Fatal("no event")
	}
	tm := k.AfterTicks(MaxTime, func() {})
	if !tm.Active() {
		t.Fatal("overflowing AfterTicks returned a dead timer")
	}
	if tm.When() != MaxTime {
		t.Errorf("When = %v, want MaxTime", tm.When())
	}
	if !tm.Cancel() {
		t.Error("clamped timer not cancellable")
	}
	// Saturation at the boundary: scheduling from MaxTime itself stays put.
	k2 := New()
	tm2 := k2.AfterTicks(MaxTime, func() {})
	if tm2.When() != MaxTime {
		t.Fatalf("When = %v", tm2.When())
	}
}

// TestTimerStaleHandle: once an event has fired, its struct may be recycled
// for a new event; the old handle must stay dead and must not cancel the new
// occupant.
func TestTimerStaleHandle(t *testing.T) {
	k := New()
	fired := 0
	t1 := k.AfterTicks(Second, func() { fired++ })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t1.Active() {
		t.Error("fired timer still active")
	}
	// The recycled struct now backs t2.
	t2 := k.AfterTicks(Second, func() { fired++ })
	if t1.Cancel() {
		t.Error("stale handle cancelled a recycled event")
	}
	if !t2.Active() {
		t.Error("live timer killed by stale handle")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("fired = %d, want 2", fired)
	}
	if t1.When() != Second {
		t.Errorf("stale When = %v, want its original instant", t1.When())
	}
}

// TestAtArg exercises the handler scheduling form, AtArgStamped stamped
// with the current instant.
func TestAtArg(t *testing.T) {
	k := New()
	var got []int
	fn := handlerFunc(func(a any) { got = append(got, a.(int)) })
	at := func(when Time, arg int) Timer {
		tm, err := k.AtArgStamped(when, k.Now(), fn, arg)
		if err != nil {
			t.Fatal(err)
		}
		return tm
	}
	at(2*Second, 2)
	at(Second, 1)
	tm := at(3*Second, 3)
	tm.Cancel()
	at(0, 0)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	k := New()
	var fired []int
	k.AfterTicks(1*Second, func() { fired = append(fired, 1) })
	k.AfterTicks(2*Second, func() { fired = append(fired, 2) })
	k.AfterTicks(3*Second, func() { fired = append(fired, 3) })
	if err := k.RunUntil(2 * Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Errorf("fired %v at RunUntil(2s)", fired)
	}
	if k.Now() != 2*Second {
		t.Errorf("now = %v, want exactly 2s", k.Now())
	}
	if k.Pending() != 1 {
		t.Errorf("pending = %d", k.Pending())
	}
	if err := k.RunUntil(k.Now() + Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || k.Now() != 3*Second {
		t.Errorf("after a second more: fired=%v now=%v", fired, k.Now())
	}
}

// TestKernelPosition pins the position RunUntil and RunBefore leave, which
// Passed, AtKeyed and AtArgStamped's same-instant raise read outside any
// event. After RunUntil(t) — whether its last event fired before t or at t —
// every key at t drawn so far has passed, a stamp behind t is raised to t,
// and a key drawn afterwards has not passed. After RunBefore(t) no key at t
// has passed and no stamp is raised. A call that does not advance the clock
// moves nothing.
func TestKernelPosition(t *testing.T) {
	const edge = 10 * Millisecond
	var k *Kernel
	var stamp Time // the firing event's stamp, as record saw it
	record := handlerFunc(func(any) { stamp = k.nowAt })
	for _, last := range []Time{5 * Millisecond, edge} {
		k = New()
		if _, err := k.At(last, func() {}); err != nil {
			t.Fatal(err)
		}
		drawn := k.ReserveSeq()
		if err := k.RunUntil(edge); err != nil {
			t.Fatal(err)
		}
		if !k.Passed(edge, edge-1, drawn+100) || !k.Passed(edge, edge, drawn) {
			t.Errorf("last event at %v: a key at the edge has not passed after RunUntil(edge)", last)
		}
		if k.Passed(edge, edge, k.ReserveSeq()) {
			t.Errorf("last event at %v: a key drawn after RunUntil(edge) has passed", last)
		}
		if _, err := k.AtArgStamped(edge, edge-1, record, nil); err != nil {
			t.Fatal(err)
		}
		if err := k.RunUntil(edge); err != nil {
			t.Fatal(err)
		}
		if stamp != edge {
			t.Errorf("last event at %v: AtArgStamped(edge, edge-1) after RunUntil(edge) fired stamped %v, want the edge", last, stamp)
		}
		if err := k.RunBefore(edge); err != nil {
			t.Fatal(err)
		}
		if !k.Passed(edge, edge-1, 0) {
			t.Errorf("last event at %v: RunBefore at the clock moved the position back", last)
		}
	}

	// The last event before the edge is stamped 3 ms, so a stale position
	// would report keys stamped before 3 ms as passed and raise their stamps.
	k = New()
	if _, err := k.At(3*Millisecond, func() { k.AfterTicks(2*Millisecond, func() {}) }); err != nil {
		t.Fatal(err)
	}
	if err := k.RunBefore(edge); err != nil {
		t.Fatal(err)
	}
	if k.Now() != edge || k.Passed(edge, 0, 0) || k.Passed(edge, Millisecond, 0) {
		t.Errorf("after RunBefore(edge) at %v, a key at the edge has passed", k.Now())
	}
	if _, err := k.AtArgStamped(edge, Millisecond, record, nil); err != nil {
		t.Fatal(err)
	}
	if err := k.RunUntil(edge); err != nil {
		t.Fatal(err)
	}
	if stamp != Millisecond {
		t.Errorf("AtArgStamped(edge, 1ms) after RunBefore(edge) fired stamped %v, want 1ms", stamp)
	}
}

func TestEventLimit(t *testing.T) {
	k := New()
	var reschedule func()
	reschedule = func() { k.AfterTicks(Millisecond, reschedule) }
	k.AfterTicks(Millisecond, reschedule)
	k.SetEventLimit(100)
	if err := k.Run(); !errors.Is(err, ErrEventLimit) {
		t.Errorf("Run error = %v, want ErrEventLimit", err)
	}
	if k.Processed() != 100 {
		t.Errorf("processed = %d", k.Processed())
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			k.AfterTicks(Millisecond, recurse)
		}
	}
	k.AfterTicks(0, recurse)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Errorf("depth = %d", depth)
	}
	if k.Now() != 4*Millisecond {
		t.Errorf("now = %v", k.Now())
	}
}

// TestKernelSortsArbitraryTimes is the kernel's core property: any multiset
// of scheduled instants is fired in non-decreasing order.
func TestKernelSortsArbitraryTimes(t *testing.T) {
	property := func(offsets []uint32) bool {
		k := New()
		var fired []Time
		for _, off := range offsets {
			at := Time(off)
			k.AfterTicks(at, func() { fired = append(fired, k.Now()) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		if len(fired) != len(offsets) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}

// TestKernelCancellationProperty: cancelling a random subset fires exactly
// the complement.
func TestKernelCancellationProperty(t *testing.T) {
	property := func(offsets []uint16, mask []bool) bool {
		k := New()
		fired := make(map[int]bool, len(offsets))
		timers := make([]Timer, len(offsets))
		for i, off := range offsets {
			i := i
			timers[i] = k.AfterTicks(Time(off)+1, func() { fired[i] = true })
		}
		cancelled := make(map[int]bool, len(offsets))
		for i := range timers {
			if i < len(mask) && mask[i] {
				timers[i].Cancel()
				cancelled[i] = true
			}
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := range offsets {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
