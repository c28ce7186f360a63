package core

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelDefaultOverlaps pins the documented default: Options{}
// solves instances concurrently, bounded by GOMAXPROCS. A regression
// that flips the default to sequential (or ignores Workers) fails here.
func TestParallelDefaultOverlaps(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)

	// measure runs f over n instances and reports the peak number of
	// instances in flight at once.
	measure := func(n int, opts Options) int {
		var inFlight, peak atomic.Int64
		runInstances(n, opts, nil, func(i int) {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
		})
		return int(peak.Load())
	}

	if p := measure(8, Options{}); p < 2 {
		t.Errorf("default options: peak in-flight = %d, want >= 2 (parallel default)", p)
	}
	if p := measure(8, Options{Workers: 3}); p > 3 {
		t.Errorf("Workers=3: peak in-flight = %d, want <= 3", p)
	}
	if p := measure(8, Options{Sequential: true}); p != 1 {
		t.Errorf("Sequential: peak in-flight = %d, want 1", p)
	}
}

// TestRunInstancesSequentialKeepsOrder pins that the sequential path
// ignores the estimate ordering and runs in deterministic input order.
func TestRunInstancesSequentialKeepsOrder(t *testing.T) {
	var got []int
	est := []int64{1, 9, 3, 7}
	runInstances(4, Options{Sequential: true}, est, func(i int) {
		got = append(got, i)
	})
	for i, v := range got {
		if v != i {
			t.Fatalf("sequential order = %v, want identity order", got)
		}
	}
}

// TestRunInstancesLongestFirst pins the LPT schedule: with a single
// worker, instances must start in descending estimated-cost order.
func TestRunInstancesLongestFirst(t *testing.T) {
	var mu sync.Mutex
	var got []int
	est := []int64{1, 5, 3}
	runInstances(3, Options{Workers: 1}, est, func(i int) {
		mu.Lock()
		got = append(got, i)
		mu.Unlock()
	})
	want := []int{1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LPT order = %v, want %v", got, want)
		}
	}
}

// TestRunInstancesContainsPanics: a task that panics stops alone. Its
// panic comes back, with its stack, at its index; every other task
// runs to completion, in parallel and in sequential mode.
func TestRunInstancesContainsPanics(t *testing.T) {
	for _, opts := range []Options{{Workers: 2}, {Sequential: true}} {
		var ran atomic.Int64
		panics := runInstances(6, opts, nil, func(i int) {
			if i == 3 {
				panic("task 3 failed")
			}
			ran.Add(1)
		})
		if ran.Load() != 5 {
			t.Errorf("sequential=%v: %d other tasks ran, want 5", opts.Sequential, ran.Load())
		}
		if len(panics) != 6 {
			t.Fatalf("sequential=%v: panics = %v, want one slot per task", opts.Sequential, panics)
		}
		for i, err := range panics {
			var pe *PanicError
			switch {
			case i != 3 && err != nil:
				t.Errorf("sequential=%v: task %d reported %v", opts.Sequential, i, err)
			case i == 3 && (!errors.As(err, &pe) || pe.Value != "task 3 failed" ||
				!strings.Contains(string(pe.Stack), "TestRunInstancesContainsPanics")):
				t.Errorf("sequential=%v: task 3 reported %v", opts.Sequential, err)
			}
		}
	}
	if panics := runInstances(4, Options{}, nil, func(int) {}); panics != nil {
		t.Errorf("no task panicked, got %v", panics)
	}
}
