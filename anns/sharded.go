package anns

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/par"
)

// ShardedIndex partitions one logical database across S independently
// seeded shards, each a full *Index over its slice of the points. A query
// fans out to every shard concurrently and the per-shard answers are
// merged by Hamming distance, so the logical answer quality matches a
// single index over the union (the true nearest neighbor lives in exactly
// one shard, and that shard sees it as its own nearest neighbor at an
// easier — smaller n — scale).
//
// The cell-probe accounting is aggregated the way the model charges a
// parallel machine: the shards probe simultaneously, so Rounds is the
// maximum over shards while Probes and MaxParallel sum across them. The
// paper's adaptivity/efficiency tradeoff therefore stays observable at
// serving scale: sharding buys wall-clock parallelism and smaller
// per-shard tables at the price of an S-fold probe (work) blowup.
type ShardedIndex struct {
	opts   Options
	shards []*Index
	// global[s][j] is the position in the original Build slice of shard
	// s's j-th point, mapping shard-local answers back to logical
	// indices. Stored as uint64 words — the snapshot section's exact
	// layout — so the mmap load path can serve the mapping as a
	// zero-copy view of the file (DESIGN.md §9.1).
	global [][]uint64
	// globalFn is the same mapping as a function, built once so the
	// per-query merge stays allocation-free (a per-call closure would
	// allocate on the pinned hot path).
	globalFn func(shard, local int) int
	n        int
}

// splitSeed derives shard s's seed from the user seed via a splitmix64
// step, so shards draw independent public randomness even for adjacent
// or zero user seeds.
func splitSeed(seed uint64, s int) uint64 {
	z := seed + uint64(s+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// BuildSharded partitions points round-robin across shards indices and
// builds one Index per shard. Options are applied per shard (each shard
// gets its own derived seed); the points slice is retained, not copied.
// Every shard must receive at least 2 points, so len(points) >= 2*shards.
func BuildSharded(points []Point, shards int, opts Options) (*ShardedIndex, error) {
	if shards < 1 {
		return nil, errors.New("anns: BuildSharded needs at least 1 shard")
	}
	if len(points) < 2*shards {
		return nil, fmt.Errorf("anns: %d points cannot fill %d shards with 2 points each",
			len(points), shards)
	}
	sx := &ShardedIndex{
		opts:   opts,
		shards: make([]*Index, shards),
		global: make([][]uint64, shards),
		n:      len(points),
	}
	sx.globalFn = func(s, j int) int { return int(sx.global[s][j]) }
	parts := make([][]Point, shards)
	for i, p := range points {
		s := i % shards
		parts[s] = append(parts[s], p)
		sx.global[s] = append(sx.global[s], uint64(i))
	}
	// Shards are independent (disjoint points, derived seeds), so they
	// build concurrently, each with a proportional slice of the pool.
	workers := par.Workers(opts.BuildWorkers)
	inner := workers / shards
	if inner < 1 {
		inner = 1
	}
	errs := make([]error, shards)
	par.Do(workers, shards, func(s int) {
		o := opts
		o.Seed = splitSeed(opts.Seed, s)
		o.BuildWorkers = inner
		sx.shards[s], errs[s] = Build(parts[s], o)
	})
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("anns: building shard %d/%d: %w", s, shards, err)
		}
	}
	// Build normalizes defaults (Gamma, Rounds, Repetitions); adopt them.
	norm := sx.shards[0].Options()
	norm.Seed = opts.Seed
	norm.BuildWorkers = opts.BuildWorkers
	sx.opts = norm
	return sx, nil
}

// shardScratch is the reusable fan-out state of one sharded query: the
// reply buffer the merge folds over and the per-shard errors the
// NO-vs-error rule reads. Pooled so the merge path does not reallocate
// them per call.
type shardScratch struct {
	replies []ShardReply
	errs    []error
	box     panicBox // a shard goroutine's panic, re-raised on the caller's
}

var shardScratchPool = sync.Pool{New: func() any { return new(shardScratch) }}

func acquireShardScratch(n int) *shardScratch {
	s := shardScratchPool.Get().(*shardScratch)
	if cap(s.replies) < n {
		s.replies = make([]ShardReply, n)
		s.errs = make([]error, n)
	}
	s.replies = s.replies[:n]
	s.errs = s.errs[:n]
	return s
}

// shardQuerier is one shard of a fan-out: *Index under ShardedIndex,
// *MutableIndex under MutableSharded.
type shardQuerier interface {
	Query(x Point) (Result, error)
	QueryNear(x Point, lambda float64) (Result, error)
}

// fanOut is the one in-process shard fan-out: it asks every shard
// concurrently (the nearest-neighbor query, or the λ-near decision when
// near is set), folds the replies with MergeShardReplies — the fold the
// distributed coordinator shares, so remote merges stay byte-identical —
// and applies the failure rule once. A shard-level failure can at worst
// hide that shard's candidate, degrading the answer the same way one lost
// repetition degrades a boosted single index; the call fails only when no
// shard produced an answer. For the λ-near decision NO is an answer and
// an error is not: the result is NO (Index -1, nil error) unless every
// shard errored.
//
// A panic in a shard's query does not die on the shard's goroutine (which
// would take the process down): fanOut waits for every shard, then
// re-raises it on the calling goroutine.
//
// It is generic over the shard type rather than taking a per-shard
// closure so the hot path allocates nothing beyond its goroutines. Each
// shard goroutine draws its own pooled query context; a caller-held
// Scratch cannot be shared across the concurrent fan-out.
func fanOut[S shardQuerier](shards []S, global func(shard, local int) int, x Point, near bool, lambda float64) (Result, error) {
	sc := acquireShardScratch(len(shards))
	defer shardScratchPool.Put(sc)
	var wg sync.WaitGroup
	for s := range shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer sc.box.capture()
			if near {
				res, err := shards[s].QueryNear(x, lambda)
				sc.errs[s] = err
				sc.replies[s] = ShardReply{Result: res, OK: err == nil && res.Index >= 0}
				return
			}
			res, err := shards[s].Query(x)
			sc.errs[s] = err
			sc.replies[s] = ShardReply{Result: res, OK: err == nil}
		}(s)
	}
	wg.Wait()
	sc.box.repanic()
	out := MergeShardReplies(sc.replies, global)
	if out.Index >= 0 {
		return out, nil
	}
	if !near {
		return out, errors.New("anns: query failed on every shard")
	}
	for _, err := range sc.errs {
		if err == nil {
			return out, nil
		}
	}
	return out, fmt.Errorf("anns: near query failed on every shard: %w", sc.errs[0])
}

// Query fans x out to every shard concurrently and returns the closest
// answer across shards, with aggregated accounting (Rounds = max over
// shards, Probes and MaxParallel summed). It fails only when every shard
// fails.
func (sx *ShardedIndex) Query(x Point) (Result, error) {
	return fanOut(sx.shards, sx.globalFn, x, false, 0)
}

// QueryScratch implements the Scratch-taking query surface uniformly with
// *Index. The sharded fan-out runs on per-shard pooled contexts (see
// Query), so the caller's scratchpad is not consumed — but server workers
// can hold one code path for both index kinds.
func (sx *ShardedIndex) QueryScratch(x Point, _ *Scratch) (Result, error) {
	return sx.Query(x)
}

// QueryNearScratch is the λ-ANNS counterpart of QueryScratch.
func (sx *ShardedIndex) QueryNearScratch(x Point, lambda float64, _ *Scratch) (Result, error) {
	return sx.QueryNear(x, lambda)
}

// QueryNear answers the λ-near-neighbor decision over the sharded
// database: YES from any shard (closest witness wins) beats NO, and the
// logical answer is NO only when every shard answers NO. Shard-level
// errors surface only if no shard produced an answer at all.
func (sx *ShardedIndex) QueryNear(x Point, lambda float64) (Result, error) {
	return fanOut(sx.shards, sx.globalFn, x, true, lambda)
}

// BatchQuery answers many queries over a fixed worker pool, each worker
// running the full shard fan-out. Results are in input order.
func (sx *ShardedIndex) BatchQuery(xs []Point, workers int) []BatchResult {
	return sx.BatchQueryContext(context.Background(), xs, workers)
}

// BatchQueryContext is BatchQuery under a context, with the same
// cancellation semantics as (*Index).BatchQueryContext.
func (sx *ShardedIndex) BatchQueryContext(ctx context.Context, xs []Point, workers int) []BatchResult {
	return batchRun(ctx, len(xs), workers, func(i int, sc *Scratch) (Result, error) {
		return sx.QueryScratch(xs[i], sc)
	})
}

// BatchQueryNear is the λ-ANNS batch entry point over all shards.
func (sx *ShardedIndex) BatchQueryNear(xs []Point, lambda float64, workers int) []BatchResult {
	return batchRun(context.Background(), len(xs), workers, func(i int, sc *Scratch) (Result, error) {
		return sx.QueryNearScratch(xs[i], lambda, sc)
	})
}

// Len returns the logical database size (sum over shards).
func (sx *ShardedIndex) Len() int { return sx.n }

// Shards returns the shard count.
func (sx *ShardedIndex) Shards() int { return len(sx.shards) }

// Shard returns shard s's underlying *Index. The returned index answers
// with shard-local point positions; GlobalIndex maps them back to the
// logical database. annsctl shard-split uses this to snapshot each shard
// for its own serving process.
func (sx *ShardedIndex) Shard(s int) *Index { return sx.shards[s] }

// GlobalIndex translates shard s's local point position back to the
// position in the original Build slice.
func (sx *ShardedIndex) GlobalIndex(shard, local int) int { return int(sx.global[shard][local]) }

// Options returns the normalized options the shards were built with (the
// Seed field is the user seed; each shard derives its own from it).
func (sx *ShardedIndex) Options() Options { return sx.opts }

// Space rolls the per-shard storage accounting up to the subsystem:
// MaterializedCells sums, and NominalLog2Cells is log₂ of the summed
// nominal cell counts (a log-sum-exp, since the per-shard counts only
// exist as logarithms).
func (sx *ShardedIndex) Space() Space {
	var out Space
	maxLog := math.Inf(-1)
	logs := make([]float64, len(sx.shards))
	for s, ix := range sx.shards {
		sp := ix.Space()
		out.MaterializedCells += sp.MaterializedCells
		logs[s] = sp.NominalLog2Cells
		if sp.NominalLog2Cells > maxLog {
			maxLog = sp.NominalLog2Cells
		}
	}
	sum := 0.0
	for _, l := range logs {
		sum += math.Exp2(l - maxLog)
	}
	out.NominalLog2Cells = maxLog + math.Log2(sum)
	return out
}

// ShardSpaces returns each shard's own storage accounting, in shard order.
func (sx *ShardedIndex) ShardSpaces() []Space {
	out := make([]Space, len(sx.shards))
	for s, ix := range sx.shards {
		out[s] = ix.Space()
	}
	return out
}
