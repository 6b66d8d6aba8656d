package anns

import (
	"context"
	"sync/atomic"
	"testing"
)

// mustPanicWith runs f and requires it to panic with exactly want, on the
// calling goroutine. Before the spawned goroutines carried their panics
// back, these tests did not fail: they killed the test binary.
func mustPanicWith(t *testing.T, want any, f func()) {
	t.Helper()
	defer func() {
		if got := recover(); got != want {
			t.Fatalf("recovered %v, want the worker's panic %v", got, want)
		}
	}()
	f()
	t.Fatal("no panic reached the caller")
}

// TestBatchRunPanicReachesCaller: a job that panics on a pool worker
// surfaces on the goroutine that called batchRun, after every worker has
// exited; jobs after it do not run.
func TestBatchRunPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 3} {
		var running, ran atomic.Int64
		mustPanicWith(t, "job 5 blew up", func() {
			batchRun(context.Background(), 200, workers, func(i int, _ *Scratch) (Result, error) {
				running.Add(1)
				defer running.Add(-1)
				ran.Add(1)
				if i == 5 {
					panic("job 5 blew up")
				}
				return Result{Index: i}, nil
			})
		})
		if n := running.Load(); n != 0 {
			t.Fatalf("workers=%d: %d jobs still running when the panic reached the caller", workers, n)
		}
		if n := ran.Load(); n >= 200 {
			t.Fatalf("workers=%d: all %d jobs ran; the pool did not stop after the panic", workers, n)
		}
		// The pool is usable afterwards.
		out := batchRun(context.Background(), 4, workers, func(i int, _ *Scratch) (Result, error) {
			return Result{Index: i}, nil
		})
		for i, b := range out {
			if b.Index != i || b.Err != nil {
				t.Fatalf("workers=%d: batch after the panic: entry %d = %+v", workers, i, b)
			}
		}
	}
}

// panicShard is a fan-out shard whose queries panic.
type panicShard struct{ id int }

func (p panicShard) Query(Point) (Result, error) {
	if p.id == 2 {
		panic("shard 2 blew up")
	}
	return Result{Index: p.id, Distance: 10 + p.id}, nil
}
func (p panicShard) QueryNear(x Point, _ float64) (Result, error) { return p.Query(x) }

// TestFanOutPanicReachesCaller: the same through the shard fan-out, for
// both query kinds; the pooled fan-out state is clean afterwards.
func TestFanOutPanicReachesCaller(t *testing.T) {
	global := func(s, j int) int { return s*100 + j }
	shards := []panicShard{{0}, {1}, {2}, {3}}
	for _, near := range []bool{false, true} {
		mustPanicWith(t, "shard 2 blew up", func() { fanOut(shards, global, nil, near, 1) })
	}
	got, err := fanOut(shards[:2], global, nil, false, 0)
	if want := (Result{Index: 0, Distance: 10}); err != nil || got != want {
		t.Fatalf("fan-out after the panic: %+v, %v; want %+v", got, err, want)
	}
}

// TestBatchQueryPanicReachesCaller: the round-synchronous batch path, on
// the pool (three chunks) and inline (one chunk). A point one word short
// makes the engine itself panic.
func TestBatchQueryPanicReachesCaller(t *testing.T) {
	ix, _, queries := allocFixture(t, 128, 256, 4)
	for _, n := range []int{20, 8} {
		xs := append([]Point(nil), queries[:8]...)
		for len(xs) < n {
			xs = append(xs, queries[len(xs)%len(queries)])
		}
		xs[n-1] = xs[n-1][:len(xs[n-1])-1]
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("batch of %d with a malformed point did not panic on the caller", n)
				}
			}()
			ix.BatchQuery(xs, 2)
		}()
	}
	for i, b := range ix.BatchQuery(queries, 2) {
		if b.Err != nil {
			t.Fatalf("batch after the panics: query %d: %v", i, b.Err)
		}
	}
}
