package core

import (
	"slices"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/sketch"
)

// QueryCtx is the pooled per-query execution context of the schemes: it
// bundles the cell-probe context (staged refs, round accounting,
// transcript) with every scrap of scratch memory one query execution
// needs — the per-level query sketches M_i·x and N_j·x, the shrinking
// grid, the auxiliary-group coarse slice, and the boosted-stats
// accumulator. A context is acquired once per request (AcquireQueryCtx)
// and threaded through every layer; at steady state a query allocates
// nothing.
//
// A context is not safe for concurrent use; concurrent queries each take
// their own from the pool.
type QueryCtx struct {
	cp *cellprobe.QueryCtx

	sk     sketchScratch
	grid   []int           // the planned round's levels (Algo1); grid scratch (Algo2)
	coarse []bitvec.Vector // aux-group coarse sketch scratch (Algo2)
	agg    cellprobe.Stats // boosted repetition accumulator

	// Algorithm 1's search state between rounds: the gap (l, u] with
	// C_l = ∅ and C_u ≠ ∅, whether the first round (which carries the
	// degenerate-case probes) is still ahead, and whether the planned
	// round is the completion round.
	l, u       int
	first      bool
	completion bool
}

// NewQueryCtx returns a fresh, reusable context. Callers that issue many
// queries (batch workers, server workers) hold one and pass it to the
// schemes' QueryWithCtx entry points.
func NewQueryCtx() *QueryCtx {
	return &QueryCtx{cp: cellprobe.NewQueryCtx(0)}
}

// NewRecordingQueryCtx returns a context whose cell-probe layer keeps a
// full transcript (Probe().Transcript()), for the communication
// translation and debugging. Recording contexts are not pooled.
func NewRecordingQueryCtx() *QueryCtx {
	return &QueryCtx{cp: cellprobe.NewRecordingQueryCtx(0)}
}

// Probe exposes the cell-probe context (stats, transcript, round budget).
// The slices it hands out are reused by the next query on this context.
func (c *QueryCtx) Probe() *cellprobe.QueryCtx { return c.cp }

// begin rebinds the context to one (index, query, budget) execution.
func (c *QueryCtx) begin(idx *Index, x bitvec.Vector, k int) {
	c.cp.Reset(k)
	c.sk.bind(idx.Fam, x)
}

// queryCtxPool recycles contexts across queries and goroutines. The
// scratch inside adapts to whatever index it is bound to, so one pool
// serves all indexes (boosted repetitions, shards) in the process.
var queryCtxPool = sync.Pool{New: func() any { return NewQueryCtx() }}

// AcquireQueryCtx takes a context from the shared pool.
func AcquireQueryCtx() *QueryCtx {
	return queryCtxPool.Get().(*QueryCtx)
}

// ReleaseQueryCtx returns a context to the pool. The caller must have
// detached (Clone) any Stats slice it intends to keep.
func ReleaseQueryCtx(c *QueryCtx) {
	if c == nil || c.cp == nil {
		return
	}
	queryCtxPool.Put(c)
}

// sketchScratch caches the per-level query sketches M_i·x (and N_j·x when
// present) for one query execution, in buffers that survive across
// queries. Computing them is the algorithm's own work (it owns x and the
// public randomness) and costs no probes; recomputation is avoided within
// a query, reallocation across queries.
type sketchScratch struct {
	fam      *sketch.Family
	x        bitvec.Vector
	acc      []bitvec.Vector
	accOK    []bool
	coarse   []bitvec.Vector
	coarseOK []bool
}

func (s *sketchScratch) bind(fam *sketch.Family, x bitvec.Vector) {
	s.shape(fam)
	s.x = x
	for i := range s.accOK {
		s.accOK[i] = false
		s.coarseOK[i] = false
	}
}

// shape sizes the per-level buffers for fam, invalidating everything when
// the family changes.
func (s *sketchScratch) shape(fam *sketch.Family) {
	n := fam.L + 1
	if s.fam != fam || len(s.acc) != n {
		s.fam = fam
		s.acc = resizeVecs(s.acc, n)
		s.accOK = resizeBools(s.accOK, n)
		s.coarse = resizeVecs(s.coarse, n)
		s.coarseOK = resizeBools(s.coarseOK, n)
	}
}

// accBuf returns level i's accurate-sketch buffer, sized for the bound
// family, without computing anything.
func (s *sketchScratch) accBuf(i int) bitvec.Vector {
	if len(s.acc[i]) != bitvec.Words(s.fam.AccurateRows()) {
		s.acc[i] = bitvec.New(s.fam.AccurateRows())
	}
	return s.acc[i]
}

func resizeVecs(v []bitvec.Vector, n int) []bitvec.Vector {
	if cap(v) < n {
		return make([]bitvec.Vector, n)
	}
	return v[:n]
}

func resizeBools(v []bool, n int) []bool {
	if cap(v) < n {
		return make([]bool, n)
	}
	return v[:n]
}

// accurate returns M_i·x, computing it into the level's reusable buffer
// on first use within the current query.
func (s *sketchScratch) accurate(i int) bitvec.Vector {
	if !s.accOK[i] {
		s.fam.Accurate[i].ApplyInto(s.accBuf(i), s.x)
		s.accOK[i] = true
	}
	return s.acc[i]
}

// coarseAt returns N_j·x under the same reuse discipline.
func (s *sketchScratch) coarseAt(j int) bitvec.Vector {
	if s.fam.Coarse == nil {
		panic("core: scheme needs a coarse sketch family (Params.S > 0)")
	}
	if !s.coarseOK[j] {
		want := bitvec.Words(s.fam.CoarseRows())
		if len(s.coarse[j]) != want {
			s.coarse[j] = bitvec.New(s.fam.CoarseRows())
		}
		s.fam.Coarse[j].ApplyInto(s.coarse[j], s.x)
		s.coarseOK[j] = true
	}
	return s.coarse[j]
}

// BatchCtx is the execution context of a round-synchronous chunk of
// queries (Algo1.QueryEachWithCtx): one QueryCtx per query plus the lock-
// step driver's lists. It grows to the largest chunk it has served and is
// reused across chunks, so steady-state batches allocate nothing. The zero
// value is ready to use; not safe for concurrent use.
type BatchCtx struct {
	ctxs []*QueryCtx
	live []int                 // positions of the queries still running
	cps  []*cellprobe.QueryCtx // their probe contexts, the joint flush's argument
	errs []error               // the joint flush's per-context outcome

	dsts, srcs []bitvec.Vector // one level's sketch group
}

// bind makes room for a chunk of n queries.
func (b *BatchCtx) bind(n int) {
	for len(b.ctxs) < n {
		b.ctxs = append(b.ctxs, NewQueryCtx())
	}
	if cap(b.errs) < n {
		b.errs = make([]error, n)
	}
}

// sketchGrids computes the sketches the live queries' planned rounds will
// address, level by level: M_i·x for every live query whose grid holds i,
// as one batch through the blocked kernel. Queries that share a level —
// all of them in the first round, whose grid does not depend on the query
// — share the walk over M_i.
func (b *BatchCtx) sketchGrids(fam *sketch.Family, live []int) {
	for i := 0; i <= fam.L; i++ {
		dsts, srcs := b.dsts[:0], b.srcs[:0]
		for _, q := range live {
			c := b.ctxs[q]
			if !c.sk.accOK[i] && slices.Contains(c.grid, i) {
				dsts, srcs = append(dsts, c.sk.accBuf(i)), append(srcs, c.sk.x)
				c.sk.accOK[i] = true
			}
		}
		if len(dsts) > 0 {
			fam.Accurate[i].ApplyBatchInto(dsts, srcs)
		}
		b.dsts, b.srcs = dsts, srcs
	}
}
