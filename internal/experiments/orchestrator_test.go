package experiments

import (
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestRunTasksSequential(t *testing.T) {
	var order []int
	err := RunTasks(1, 5, func(i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2, 3, 4}) {
		t.Errorf("sequential order = %v", order)
	}
}

func TestRunTasksParallelRunsAll(t *testing.T) {
	var ran int64
	err := RunTasks(4, 20, func(int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ran != 20 {
		t.Errorf("ran %d of 20 tasks", ran)
	}
}

func TestRunTasksErrorPropagation(t *testing.T) {
	sentinel := errors.New("task 3 failed")
	for _, parallel := range []int{1, 4} {
		err := RunTasks(parallel, 8, func(i int) error {
			if i == 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Errorf("parallel=%d: err = %v, want task 3's error", parallel, err)
		}
	}
}

func TestRunTasksZeroTasks(t *testing.T) {
	if err := RunTasks(4, 0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// The worker-pool determinism smoke test for full sweeps (Parallel > 1 vs
// sequential, byte-identical points) lives in roc_test.go as
// TestGainSweepParallelMatchesSequential; under -race it doubles as the
// figure-orchestrator data-race check since both share RunTasks.
