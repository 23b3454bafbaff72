package pool_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"heisendump/internal/pool"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		n := 50
		counts := make([]int32, n)
		err := pool.ForEachContext(context.Background(), workers, n, func(i int) error {
			atomic.AddInt32(&counts[i], 1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	done := make(chan struct{})
	err := pool.ForEachContext(context.Background(), workers, 20, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		// Give other workers a chance to pile up.
		select {
		case <-done:
		default:
		}
		inFlight.Add(-1)
		return nil
	})
	close(done)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeded %d workers", p, workers)
	}
}

func TestForEachStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	err := pool.ForEachContext(context.Background(), 1, 100, func(i int) error {
		ran.Add(1)
		if i == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// Single worker claims in order: indices 0..4 run, the rest are
	// skipped once the error lands.
	if got := ran.Load(); got != 5 {
		t.Fatalf("ran %d tasks, want 5", got)
	}
}

func TestForEachContextCancellationSkipsUnstartedTasks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := pool.ForEachContext(ctx, 1, 100, func(i int) error {
		ran.Add(1)
		if i == 4 {
			cancel() // started tasks run to completion; nothing more is claimed
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("ran %d tasks, want 5", got)
	}
}

func TestForEachContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := pool.ForEachContext(ctx, 4, 10, func(int) error { t.Error("task ran"); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestForEachEmptyAndOversized(t *testing.T) {
	if err := pool.ForEachContext(context.Background(), 4, 0, func(int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	var ran atomic.Int32
	if err := pool.ForEachContext(context.Background(), 64, 2, func(int) error { ran.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran %d, want 2", ran.Load())
	}
}
