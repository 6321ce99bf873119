package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pulsedos/internal/topo"
)

// TestRunTasksCtxCancellation pins the cancellation contract: a pre-canceled
// context starts nothing, a mid-sweep cancel stops dispatch, and a real task
// error is preferred over the context error.
func TestRunTasksCtxCancellation(t *testing.T) {
	t.Run("pre-canceled starts nothing", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var ran atomic.Int64
		err := RunTasksCtx(ctx, 4, 16, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if n := ran.Load(); n != 0 {
			t.Errorf("%d tasks ran under a pre-canceled context, want 0", n)
		}
	})

	t.Run("mid-sweep cancel stops dispatch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := RunTasksCtx(ctx, 2, 1000, func(i int) error {
			if ran.Add(1) == 4 {
				cancel()
			}
			time.Sleep(time.Millisecond)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// In-flight tasks finish; nothing is dispatched after the cancel
		// beyond what the workers had already pulled.
		if n := ran.Load(); n >= 1000 {
			t.Errorf("all %d tasks ran despite cancellation", n)
		}
	})

	t.Run("task error beats context error", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		boom := errors.New("boom")
		err := RunTasksCtx(ctx, 2, 8, func(i int) error {
			if i == 1 {
				cancel()
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the task error", err)
		}
	})

	t.Run("sequential honors cancel between tasks", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		var ran int
		err := RunTasksCtx(ctx, 1, 100, func(i int) error {
			ran++
			if i == 2 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if ran != 3 {
			t.Errorf("ran %d tasks, want exactly 3 (cancel polls between tasks)", ran)
		}
	})
}

// TestRunCtxChunkedMatchesRun is the premise the run cache and pdos-serve
// stand on: slicing the timeline into runChunks cancellation-poll horizons
// is invisible to results. Two identical environments, one driven by Run
// (single horizon semantics) and one by RunCtx with a progress callback,
// must produce identical measurements.
func TestRunCtxChunkedMatchesRun(t *testing.T) {
	build := func() Environment {
		env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(4)), topo.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	opt := RunOptions{Warmup: 2 * time.Second, Measure: 3 * time.Second}

	plain, err := Run(build(), opt)
	if err != nil {
		t.Fatal(err)
	}

	var fracs []float64
	chunkedOpt := opt
	chunkedOpt.Progress = func(f float64) { fracs = append(fracs, f) }
	chunked, err := RunCtx(context.Background(), build(), chunkedOpt)
	if err != nil {
		t.Fatal(err)
	}

	if plain.Delivered != chunked.Delivered {
		t.Errorf("delivered: %d plain vs %d chunked", plain.Delivered, chunked.Delivered)
	}
	if !reflect.DeepEqual(plain.PerFlow, chunked.PerFlow) {
		t.Errorf("per-flow deliveries diverge:\nplain   %v\nchunked %v", plain.PerFlow, chunked.PerFlow)
	}
	if plain.Timeouts != chunked.Timeouts || plain.FastRecoveries != chunked.FastRecoveries ||
		plain.Retransmits != chunked.Retransmits || plain.SegmentsSent != chunked.SegmentsSent {
		t.Errorf("counters diverge: plain %+v chunked %+v", *plain, *chunked)
	}

	if len(fracs) == 0 {
		t.Fatal("progress callback never fired")
	}
	for i := 1; i < len(fracs); i++ {
		if fracs[i] <= fracs[i-1] {
			t.Fatalf("progress not strictly monotone at %d: %v", i, fracs)
		}
	}
	if got := fracs[len(fracs)-1]; got != 1 {
		t.Errorf("final progress %v, want exactly 1", got)
	}
}

// TestRunCtxCancelAborts checks a done context stops a run between horizon
// slices with the context's error.
func TestRunCtxCancelAborts(t *testing.T) {
	env, err := topo.Build(topo.Dumbbell(topo.DefaultDumbbellConfig(4)), topo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	opt := RunOptions{Warmup: 2 * time.Second, Measure: 3 * time.Second}
	opt.Progress = func(f float64) {
		if f >= 0.25 {
			cancel()
		}
	}
	_, err = RunCtx(ctx, env, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
