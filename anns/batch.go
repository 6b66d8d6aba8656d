package anns

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/core"
)

// BatchResult pairs a query's position with its outcome.
type BatchResult struct {
	Result
	Err error
}

// panicBox carries the first panic of a set of spawned goroutines back to
// the goroutine that waits for them. A panic on a goroutine nobody
// recovers kills the process; the serving layer's one recovery (a 500 and
// an error count) sits on the goroutine that called the batch or fan-out,
// so that is where a panic in a worker or a shard must resurface.
type panicBox struct {
	mu  sync.Mutex
	val any
	set bool
}

// capture is deferred in each spawned goroutine.
func (p *panicBox) capture() {
	if r := recover(); r != nil {
		p.mu.Lock()
		if !p.set {
			p.val, p.set = r, true
		}
		p.mu.Unlock()
	}
}

// tripped reports whether a goroutine has panicked.
func (p *panicBox) tripped() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.set
}

// repanic runs on the waiting goroutine once the spawned ones have exited:
// it re-raises the captured panic, if any, and leaves the box empty.
func (p *panicBox) repanic() {
	p.mu.Lock()
	v, set := p.val, p.set
	p.val, p.set = nil, false
	p.mu.Unlock()
	if set {
		panic(v)
	}
}

// cancelled fills out with the no-answer sentinel carrying err.
func cancelled(out []BatchResult, err error) {
	for i := range out {
		out[i] = BatchResult{Result: Result{Index: -1, Distance: -1}, Err: err}
	}
}

// runPool runs jobs 0..n-1 over `workers` goroutines, each holding one
// pooled S (acquire/release) for its lifetime, and returns when all have
// exited. Once ctx is cancelled the dispatcher stops handing out jobs; the
// return value is the first job not handed out (n when all were) — do
// itself checks ctx for the jobs already queued. A panic in do stops
// further jobs from running and resurfaces here, on the calling goroutine.
func runPool[S any](ctx context.Context, n, workers int, acquire func() S, release func(S), do func(job int, s S)) int {
	var box panicBox
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := acquire()
			defer release(s)
			for job := range jobs {
				if !box.tripped() {
					func() {
						defer box.capture()
						do(job, s)
					}()
				}
			}
		}()
	}
	done := ctx.Done()
	job := 0
dispatch:
	for ; job < n; job++ {
		select {
		case jobs <- job:
		case <-done:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	box.repanic()
	return job
}

// batchRun is the shared worker pool behind every batch entry point: n
// independent jobs fanned over a fixed pool, results in input order.
// Each worker owns one Scratch for its whole lifetime and threads it
// through every job, so a batch reuses pooled query contexts per worker
// instead of per call. When ctx is cancelled the dispatcher stops handing
// out jobs and every job not yet started resolves to ctx.Err(); jobs
// already running finish (a cell-probe query is not interruptible
// mid-round).
func batchRun(ctx context.Context, n, workers int, run func(i int, sc *Scratch) (Result, error)) []BatchResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]BatchResult, n)
	if n == 0 {
		return out
	}
	rest := runPool(ctx, n, workers, acquireScratch, releaseScratch, func(i int, sc *Scratch) {
		if err := ctx.Err(); err != nil {
			cancelled(out[i:i+1], err)
			return
		}
		res, err := run(i, sc)
		out[i] = BatchResult{Result: res, Err: err}
	})
	cancelled(out[rest:], ctx.Err())
	return out
}

// primeChunk is how many queries a round-synchronous batch worker claims
// at a time: the lane count of the multi-key scan kernel (one vector pass
// serves a chunk's probes to a table) and a multiple of the sketch
// kernel's block width, small enough that a straggler chunk does not
// serialize the tail of a batch.
const primeChunk = 8

// batchState is the per-worker scratch of a round-synchronous batch run:
// the chunk's execution context and its core results. Pooled whole so
// steady-state batches allocate nothing.
type batchState struct {
	bc  core.BatchCtx
	res [primeChunk]core.Result
}

var batchStatePool = sync.Pool{New: func() any { return new(batchState) }}

func acquireBatchState() *batchState   { return batchStatePool.Get().(*batchState) }
func releaseBatchState(st *batchState) { batchStatePool.Put(st) }

// batchRunRounds is batchRun for the non-boosted Algorithm 1 scheme:
// workers claim chunks of primeChunk queries and run each chunk
// round-synchronously (core.Algo1.QueryEachWithCtx) — the chunk's queries
// stage a round together and every table answers the round's probes to it
// with one pass. Results and accounting are those of batchRun. Cancellation
// is observed between chunks: a chunk that has started finishes (its
// queries advance together, so there is no point between them to stop
// at), and every chunk not yet started resolves to ctx.Err(). A batch of
// one chunk runs on the calling goroutine.
func (ix *Index) batchRunRounds(ctx context.Context, a *core.Algo1, xs []Point, workers int) []BatchResult {
	n := len(xs)
	out := make([]BatchResult, n)
	chunks := (n + primeChunk - 1) / primeChunk
	if chunks <= 1 {
		if n > 0 {
			st := acquireBatchState()
			defer releaseBatchState(st)
			ix.runChunk(ctx, a, xs, out, st)
		}
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > chunks {
		workers = chunks
	}
	rest := runPool(ctx, chunks, workers, acquireBatchState, releaseBatchState, func(c int, st *batchState) {
		lo, hi := c*primeChunk, min((c+1)*primeChunk, n)
		ix.runChunk(ctx, a, xs[lo:hi], out[lo:hi], st)
	})
	cancelled(out[min(rest*primeChunk, n):], ctx.Err())
	return out
}

// runChunk answers one chunk (len(xs) ≤ primeChunk) into out, or marks it
// cancelled when ctx already is.
func (ix *Index) runChunk(ctx context.Context, a *core.Algo1, xs []Point, out []BatchResult, st *batchState) {
	if err := ctx.Err(); err != nil {
		cancelled(out, err)
		return
	}
	res := st.res[:len(xs)]
	a.QueryEachWithCtx(xs, &st.bc, res)
	for i := range res {
		out[i].Result, out[i].Err = ix.finish(xs[i], res[i])
		res[i] = core.Result{} // drop the error and stats references
	}
}

// BatchQuery answers many queries concurrently over a fixed worker pool.
// Queries are independent in the cell-probe model (each runs its own
// k-round prober against the shared tables), so they parallelize cleanly;
// the table oracles are safe for concurrent probing and memoize shared
// cells across workers.
//
// workers <= 0 selects runtime.GOMAXPROCS(0). Results are returned in
// input order.
func (ix *Index) BatchQuery(xs []Point, workers int) []BatchResult {
	return ix.BatchQueryContext(context.Background(), xs, workers)
}

// BatchQueryContext is BatchQuery under a context: once ctx is cancelled
// or its deadline passes, no further work is dispatched and the remaining
// slots carry ctx.Err(). Work already in flight runs to completion, so the
// returned slice always has len(xs) entries in input order. The unit of
// dispatch is a query, except under the non-boosted Algorithm 1 scheme,
// whose batches run round-synchronously in chunks of 8 (batchRunRounds):
// there cancellation takes effect between chunks.
func (ix *Index) BatchQueryContext(ctx context.Context, xs []Point, workers int) []BatchResult {
	if a, ok := ix.scheme.(*core.Algo1); ok {
		return ix.batchRunRounds(ctx, a, xs, workers)
	}
	return batchRun(ctx, len(xs), workers, func(i int, sc *Scratch) (Result, error) {
		return ix.QueryScratch(xs[i], sc)
	})
}

// BatchQueryNear is the λ-ANNS counterpart of BatchQuery: every query
// costs exactly one probe, making the batch embarrassingly parallel.
func (ix *Index) BatchQueryNear(xs []Point, lambda float64, workers int) []BatchResult {
	return ix.BatchQueryNearContext(context.Background(), xs, lambda, workers)
}

// BatchQueryNearContext is BatchQueryNear with cancellation semantics
// identical to BatchQueryContext.
func (ix *Index) BatchQueryNearContext(ctx context.Context, xs []Point, lambda float64, workers int) []BatchResult {
	return batchRun(ctx, len(xs), workers, func(i int, sc *Scratch) (Result, error) {
		return ix.QueryNearScratch(xs[i], lambda, sc)
	})
}
