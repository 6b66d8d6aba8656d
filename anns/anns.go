// Package anns is the public API of the reproduction: randomized
// approximate nearest-neighbor search in d-dimensional Hamming space in
// the cell-probe model with limited adaptivity (Liu–Pan–Yin, SPAA 2016).
//
// A typical use builds an Index over a database of bit vectors and issues
// queries under a round budget k:
//
//	idx, err := anns.Build(points, anns.Options{Dimension: d, Rounds: 3})
//	res, err := idx.Query(x)             // γ-approximate nearest neighbor
//	near, err := idx.QueryNear(x, 16)    // λ-near neighbor, exactly 1 probe
//
// Every answer carries the cell-probe accounting (rounds of parallel
// probes, total probes) so callers can observe the paper's
// adaptivity/efficiency tradeoff directly.
package anns

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/par"
)

// Options configures Build.
type Options struct {
	// Dimension is the Hamming-cube dimension d. Required.
	Dimension int
	// Gamma is the approximation ratio γ > 1. Default 2.
	Gamma float64
	// Rounds is the adaptivity budget k ≥ 1. Default 2.
	Rounds int
	// Algorithm selects the query scheme. Default Simple (Algorithm 1);
	// Sophisticated (Algorithm 2) needs Rounds ≥ 2 and shines for large k.
	Algorithm Algorithm
	// Repetitions > 1 boosts the success probability by that many
	// independent parallel repetitions (multiplies space and probes,
	// preserves rounds). Default 1.
	Repetitions int
	// Seed fixes the public randomness. The zero seed is a valid seed.
	Seed uint64
	// RowsMultiplier overrides the calibrated c₁ = c₂ sketch-row constant
	// (advanced; see DESIGN.md §3.2). Zero keeps the default.
	RowsMultiplier float64
	// BuildWorkers sizes the preprocessing worker pool: sketch-family
	// drawing, per-level database sketching, and boosted repetitions all
	// fan out across it. 0 selects GOMAXPROCS; 1 builds sequentially
	// (the benchmark baseline). Queries are unaffected.
	BuildWorkers int
}

// Algorithm selects between the paper's two schemes.
type Algorithm int

const (
	// Simple is Algorithm 1 (Theorem 2): works for every k ≥ 1,
	// O(k·(log d)^{1/k}) probes.
	Simple Algorithm = iota
	// Sophisticated is Algorithm 2 (Theorem 3): for larger k,
	// O(k + ((log d)/k)^{c/k}) probes.
	Sophisticated
)

// Point is a point of {0,1}^d packed into 64-bit words (see NewPoint).
type Point = bitvec.Vector

// NewPoint builds a Point from a bool slice.
func NewPoint(bits []bool) Point {
	v := bitvec.New(len(bits))
	for i, b := range bits {
		if b {
			v.Set(i, true)
		}
	}
	return v
}

// NewPointFromBytes builds a Point of dimension d from packed
// little-endian bytes (bit i of the point is bit i%8 of byte i/8).
func NewPointFromBytes(data []byte, d int) (Point, error) {
	if len(data)*8 < d {
		return nil, fmt.Errorf("anns: %d bytes cannot hold %d bits", len(data), d)
	}
	v := bitvec.New(d)
	for i := 0; i < d; i++ {
		if data[i/8]&(1<<uint(i%8)) != 0 {
			v.Set(i, true)
		}
	}
	return v, nil
}

// Result is one query's answer and accounting.
type Result struct {
	// Index is the returned database point's position in the Build slice;
	// -1 when the query failed (or, for QueryNear, when the answer is NO).
	Index int
	// Distance is the Hamming distance from the query to the answer
	// (-1 when Index < 0).
	Distance int
	// Rounds and Probes are the cell-probe accounting of this query.
	Rounds int
	Probes int
	// MaxParallel is the largest number of probes issued in one round.
	MaxParallel int
}

// Index is a built data structure.
type Index struct {
	opts      Options
	scheme    core.CtxScheme
	lambda    *core.Lambda
	coreIndex *core.Index
	db        []Point
}

// normalized validates the options and fills defaults; Build and
// NewMutable share it so the mutable tier accepts exactly the options
// the static build does.
func (opts Options) normalized() (Options, error) {
	if opts.Dimension <= 1 {
		return opts, errors.New("anns: Options.Dimension must be at least 2")
	}
	if opts.Gamma == 0 {
		opts.Gamma = 2
	}
	if opts.Gamma <= 1 {
		return opts, errors.New("anns: Options.Gamma must exceed 1")
	}
	if opts.Rounds == 0 {
		opts.Rounds = 2
	}
	if opts.Rounds < 1 {
		return opts, errors.New("anns: Options.Rounds must be at least 1")
	}
	if opts.Algorithm == Sophisticated && opts.Rounds < 2 {
		return opts, errors.New("anns: the sophisticated algorithm needs Rounds >= 2")
	}
	if opts.Repetitions == 0 {
		opts.Repetitions = 1
	}
	if opts.Repetitions < 1 {
		return opts, errors.New("anns: Options.Repetitions must be at least 1")
	}
	return opts, nil
}

// Build preprocesses the database. The points must all have dimension
// opts.Dimension; the slice is retained (not copied).
func Build(points []Point, opts Options) (*Index, error) {
	opts, err := opts.normalized()
	if err != nil {
		return nil, err
	}
	if len(points) < 2 {
		return nil, errors.New("anns: need at least 2 database points")
	}
	want := bitvec.Words(opts.Dimension)
	for i, p := range points {
		if len(p) != want {
			return nil, fmt.Errorf("anns: point %d has %d words, want %d for dimension %d",
				i, len(p), want, opts.Dimension)
		}
	}

	// The build is eager (every per-level sketch block is materialized up
	// front, across the worker pool): serving indexes answer their first
	// query at steady-state cost and snapshot without further computation.
	workers := par.Workers(opts.BuildWorkers)
	// Algorithm 1 reads only the accurate matrices M_i: a Simple index
	// draws no coarse family (and sketches the database once per level,
	// not twice).
	var coarseS float64
	if opts.Algorithm == Simple {
		coarseS = core.NoCoarseFamily
	}
	build := func(seed uint64, buildWorkers int) (core.Scheme, *core.Index) {
		idx := core.BuildIndexParallel(points, opts.Dimension, core.Params{
			Gamma: opts.Gamma,
			K:     opts.Rounds,
			C1:    opts.RowsMultiplier,
			C2:    opts.RowsMultiplier,
			S:     coarseS,
			Seed:  seed,
		}, buildWorkers)
		return newScheme(idx, opts), idx
	}

	out := &Index{opts: opts, db: points}
	if opts.Repetitions == 1 {
		s, idx := build(opts.Seed, workers)
		out.scheme = s.(core.CtxScheme)
		out.lambda = core.NewLambda(idx)
		out.coreIndex = idx
	} else {
		// Repetitions are independent (distinct seeds), so they build
		// concurrently, each with a proportional slice of the pool.
		schemes := make([]core.Scheme, opts.Repetitions)
		indexes := make([]*core.Index, opts.Repetitions)
		inner := workers / opts.Repetitions
		if inner < 1 {
			inner = 1
		}
		par.Do(workers, opts.Repetitions, func(i int) {
			schemes[i], indexes[i] = build(opts.Seed+uint64(i), inner)
		})
		out.scheme = core.NewBoostedOver(schemes, indexes)
		// The boosted scheme's first repetition *is* the seed-0 index;
		// reuse it for the λ-ANNS path and space accounting instead of
		// preprocessing the same (points, seed) pair a second time.
		idx := indexes[0]
		out.lambda = core.NewLambda(idx)
		out.coreIndex = idx
	}
	return out, nil
}

// newScheme builds the query scheme the options select over idx.
func newScheme(idx *core.Index, opts Options) core.Scheme {
	if opts.Algorithm == Sophisticated {
		return core.NewAlgo2(idx, opts.Rounds)
	}
	return core.NewAlgo1(idx, opts.Rounds)
}

// coreIndexes returns the per-repetition core indexes (one entry when the
// index is not boosted) — the snapshot save path.
func (ix *Index) coreIndexes() []*core.Index {
	if b, ok := ix.scheme.(*core.Boosted); ok {
		out := make([]*core.Index, b.Reps())
		for i := range out {
			out[i] = b.Index(i)
		}
		return out
	}
	return []*core.Index{ix.coreIndex}
}

// Scratch is a reusable query-execution scratchpad wrapping the core
// layer's pooled QueryCtx: probe buffers, per-level sketch scratch, and
// round accounting. Long-lived callers (batch workers, server workers)
// hold one Scratch and thread it through every query so that steady-state
// execution allocates nothing; one-shot callers can ignore it — Query and
// QueryNear draw from the shared pool internally. A Scratch is not safe
// for concurrent use.
type Scratch struct {
	c *core.QueryCtx
}

// NewScratch returns a fresh scratchpad.
func NewScratch() *Scratch { return &Scratch{c: core.NewQueryCtx()} }

// scratchPool recycles warmed scratchpads for the internal batch workers,
// so a batch reuses contexts across calls instead of building fresh ones
// per worker per batch.
var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

func acquireScratch() *Scratch   { return scratchPool.Get().(*Scratch) }
func releaseScratch(sc *Scratch) { scratchPool.Put(sc) }

// toResult converts a core result into the public accounting. All fields
// are plain values, so nothing retains context-owned memory.
func toResult(res core.Result) Result {
	return Result{
		Index:       res.Index,
		Distance:    -1,
		Rounds:      res.Stats.Rounds,
		Probes:      res.Stats.Probes,
		MaxParallel: res.Stats.MaxProbesInRound(),
	}
}

// Query returns a γ-approximate nearest neighbor of x using at most
// Options.Rounds rounds of parallel cell-probes. A failure (possible with
// probability bounded by the scheme's error) yields an error.
func (ix *Index) Query(x Point) (Result, error) {
	c := core.AcquireQueryCtx()
	out, err := ix.queryCtx(x, c)
	core.ReleaseQueryCtx(c)
	return out, err
}

// QueryScratch is Query on a caller-held scratchpad (per-worker reuse
// instead of per-call pool traffic).
func (ix *Index) QueryScratch(x Point, sc *Scratch) (Result, error) {
	return ix.queryCtx(x, sc.c)
}

func (ix *Index) queryCtx(x Point, c *core.QueryCtx) (Result, error) {
	return ix.finish(x, ix.scheme.QueryWithCtx(x, c))
}

// finish turns the scheme's outcome for query x into the public answer:
// the accounting, the failure as an error, the distance to the answer.
func (ix *Index) finish(x Point, res core.Result) (Result, error) {
	out := toResult(res)
	if res.Failed() {
		if res.Err != nil {
			return out, fmt.Errorf("anns: query failed: %w", res.Err)
		}
		return out, errors.New("anns: query failed")
	}
	out.Distance = bitvec.Distance(ix.point(res.Index), x)
	return out, nil
}

// QueryNear answers the approximate λ-near-neighbor search problem with a
// single cell-probe (Theorem 11): if some database point is within
// distance lambda of x, it returns (with the scheme's success
// probability) a point within Gamma·lambda; if no point is within
// Gamma·lambda it returns Index = -1 with a nil error (the NO answer).
func (ix *Index) QueryNear(x Point, lambda float64) (Result, error) {
	c := core.AcquireQueryCtx()
	out, err := ix.queryNearCtx(x, lambda, c)
	core.ReleaseQueryCtx(c)
	return out, err
}

// QueryNearScratch is QueryNear on a caller-held scratchpad.
func (ix *Index) QueryNearScratch(x Point, lambda float64, sc *Scratch) (Result, error) {
	return ix.queryNearCtx(x, lambda, sc.c)
}

func (ix *Index) queryNearCtx(x Point, lambda float64, c *core.QueryCtx) (Result, error) {
	res := ix.lambda.QueryNearWithCtx(x, lambda, c)
	out := toResult(res)
	if res.Err != nil {
		return out, fmt.Errorf("anns: near query failed: %w", res.Err)
	}
	if res.Index >= 0 {
		out.Distance = bitvec.Distance(ix.point(res.Index), x)
	}
	return out, nil
}

// Len returns the database size.
func (ix *Index) Len() int {
	if ix.db != nil {
		return len(ix.db)
	}
	return ix.coreIndex.N()
}

// point returns database point i: built indexes hold the caller's
// slice, snapshot-loaded ones serve rows straight from the flat block
// (on the mmap path, the file's own pages) without materializing
// per-row headers on the open path.
func (ix *Index) point(i int) Point {
	if ix.db != nil {
		return ix.db[i]
	}
	return ix.coreIndex.DBRow(i)
}

// points returns the whole database as per-point views, materializing
// the header slice once for snapshot-loaded indexes (the mutable tier's
// segment adoption path needs the full slice).
func (ix *Index) points() []Point {
	if ix.db != nil {
		return ix.db
	}
	return ix.coreIndex.DBVectors()
}

// Options returns the options the index was built with.
func (ix *Index) Options() Options { return ix.opts }

// Space summarizes the index's storage accounting.
type Space struct {
	// NominalLog2Cells is log₂ of the cell count of the *model* data
	// structure (the paper's n^{O(1)} table; astronomically large and never
	// materialized). It counts the tables the index holds: a Simple index
	// built now has no auxiliary tables, but one loaded from a snapshot
	// written with coarse sections still holds and counts them until it
	// is rebuilt.
	NominalLog2Cells float64
	// MaterializedCells is the number of cells the lazy simulator has
	// actually evaluated so far.
	MaterializedCells int
}

// Space reports the model-vs-simulated storage accounting (experiment E8's
// quantities, exposed on the public API).
func (ix *Index) Space() Space {
	rep := ix.coreIndex.Tables.Space()
	return Space{
		NominalLog2Cells:  rep.NominalLogCells,
		MaterializedCells: rep.MaterializedWord,
	}
}
