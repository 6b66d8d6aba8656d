// Package core implements the paper's cell-probing schemes:
//
//   - Algo1: the simple k-round scheme of Theorem 2/9, O(k·(log d)^{1/k})
//     probes for every k ≥ 1;
//   - Algo2: the sophisticated scheme of Theorem 3/10 for larger k,
//     O(k + ((log d)/k)^{c/k}) probes, using the coarse approximations
//     D_{i,j} through the auxiliary tables;
//   - Lambda: the folklore 1-probe scheme for approximate λ-near neighbor
//     search of Theorem 11;
//   - Boosted: success amplification by independent parallel repetition
//     (§2, public-coin remark), preserving the number of rounds.
//
// All schemes are public-coin: the sketch family drawn from Params.Seed is
// shared between the table oracles and the querier, exactly as in §3's
// presentation; Lemma 5 / Proposition 6 convert this to a private-coin
// scheme with an O(dn) table blowup, which we account analytically.
package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/sketch"
	"repro/internal/table"
)

// Params configures an index. Zero values select documented defaults.
type Params struct {
	Gamma float64 // approximation ratio γ > 1 (default 2)
	C1    float64 // accurate sketch rows multiplier (default sketch.DefaultC1)
	C2    float64 // coarse sketch rows multiplier (default sketch.DefaultC2)
	CExp  float64 // Algorithm 2's constant c > 2 (default 3)
	K     int     // round budget for the schemes built on this index (default 2)
	S     float64 // Algorithm 2's s; 0 derives it from K and CExp per §3.2, NoCoarseFamily draws no N_j
	Seed  uint64  // public randomness seed

	// CutFraction and LiteralDeltaCut are forwarded to the sketch family
	// for the threshold-placement ablation (sketch.Params documentation).
	CutFraction     float64
	LiteralDeltaCut bool
}

// NoCoarseFamily is the S that builds an index for Algorithm 1 alone:
// the sketch layer draws no coarse matrices N_j for S <= 0, so the
// index holds neither them nor the database's coarse sketches, and a
// snapshot of it has no coarse sections. Algorithm 1 reads only the
// accurate matrices M_i, which come from their own seed splits either
// way, so its answers and probe accounting do not change.
const NoCoarseFamily = -1

func (p Params) withDefaults() Params {
	if p.Gamma == 0 {
		p.Gamma = 2
	}
	if p.CExp == 0 {
		p.CExp = 3
	}
	if p.K == 0 {
		p.K = 2
	}
	if p.S == 0 {
		// s = (1/4 − 1/(2c))·k − 1/4, clamped to ≥ 1 so that small round
		// budgets (below the paper's k > 5c²/(c−2) regime) still run. At
		// s = 1 and k < 7 the phase-count exponent (k−1)/2 − 2s is below
		// 1 and algo2Tau clamps it to 1, so τ = 2⌈L/k⌉ and the scheme
		// never shrinks toward Algorithm 1: it spends more probes, not
		// fewer (experiment E2: 22 against Algorithm 1's 9.5).
		p.S = (0.25-1/(2*p.CExp))*float64(p.K) - 0.25
		if p.S < 1 {
			p.S = 1
		}
	}
	return p
}

// Index is the preprocessed data structure: the database, the public
// sketch family, and every table the schemes probe.
type Index struct {
	P Params
	D int
	// DB holds per-point views of the database when the index was built
	// from a caller's slice (free — it is that slice). Snapshot-loaded
	// indexes leave it nil and serve rows straight from the flat block;
	// use DBRow/DBVectors/N, which handle both.
	DB     []bitvec.Vector
	Fam    *sketch.Family
	Tables *table.Set
}

// N returns the database size.
func (ix *Index) N() int { return ix.Tables.DBBlock.Rows() }

// DBRow returns database point i without materializing the per-row
// header slice — a view of the caller's slice or of the flat block
// (which on the mmap path is the snapshot file itself).
func (ix *Index) DBRow(i int) bitvec.Vector {
	if ix.DB != nil {
		return ix.DB[i]
	}
	return ix.Tables.DBBlock.Row(i)
}

// DBVectors returns per-point views of the whole database, materializing
// the header slice once for snapshot-loaded indexes.
func (ix *Index) DBVectors() []bitvec.Vector {
	if ix.DB != nil {
		return ix.DB
	}
	return ix.Tables.Vectors()
}

// BuildIndex preprocesses the database of d-dimensional points. The
// per-level database sketches stay lazy (computed on first probe), which
// suits the experiment harness; serving callers use BuildIndexParallel.
func BuildIndex(db []bitvec.Vector, d int, p Params) *Index {
	if len(db) == 0 {
		panic("core: empty database")
	}
	p = p.withDefaults()
	fam := sketch.NewFamily(p.SketchParams(d, len(db)))
	return &Index{P: p, D: d, DB: db, Fam: fam, Tables: table.NewSet(fam, db)}
}

// BuildIndexParallel is the eager build path: it draws the sketch family
// and materializes every per-level database sketch block across a worker
// pool (workers <= 1 runs the same eager build sequentially — the
// benchmark baseline). The resulting index answers its first query at
// steady-state cost and snapshots without further computation.
func BuildIndexParallel(db []bitvec.Vector, d int, p Params, workers int) *Index {
	if len(db) == 0 {
		panic("core: empty database")
	}
	p = p.withDefaults()
	fam := sketch.NewFamilyParallel(p.SketchParams(d, len(db)), workers)
	ts := table.NewSet(fam, db)
	ts.Materialize(workers)
	return &Index{P: p, D: d, DB: db, Fam: fam, Tables: ts}
}

// NewIndexFromParts assembles an index around an already-built family and
// table set — the snapshot load path. p must be normalized (a saved
// index's P always is); the database is the table set's flat block.
func NewIndexFromParts(p Params, d int, fam *sketch.Family, ts *table.Set) *Index {
	return &Index{P: p, D: d, Fam: fam, Tables: ts}
}

// SketchParams maps index parameters to the sketch substrate's (used
// by the snapshot layer to rebuild families from saved parameters).
func (p Params) SketchParams(d, n int) sketch.Params {
	return sketch.Params{
		D: d, N: n, Gamma: p.Gamma,
		C1: p.C1, C2: p.C2, S: p.S, Seed: p.Seed,
		CutFraction: p.CutFraction, LiteralDeltaCut: p.LiteralDeltaCut,
	}
}

// Result is the outcome of one query execution.
type Result struct {
	Index      int             // returned database point index; -1 on failure
	Stats      cellprobe.Stats // probe/round accounting
	Degenerate bool            // answered by a degenerate-case membership probe
	Violated   bool            // a run-time check caught an assumption violation
	Err        error
}

// Failed reports whether the scheme produced no answer.
func (r Result) Failed() bool { return r.Index < 0 || r.Err != nil }

// Scheme is a cell-probing scheme over a shared index.
type Scheme interface {
	// Query answers one query point.
	Query(x bitvec.Vector) Result
	// Name identifies the scheme in reports.
	Name() string
	// Rounds returns the scheme's round budget k.
	Rounds() int
}

// CtxScheme is a Scheme that supports pooled execution contexts: the
// serving layers acquire one QueryCtx per worker (or per request) and
// thread it through every query instead of allocating per probe. The
// returned Result's Stats alias context-owned memory; callers that
// outlive the context must Clone them.
type CtxScheme interface {
	Scheme
	QueryWithCtx(x bitvec.Vector, c *QueryCtx) Result
}

// queryPooled runs one CtxScheme query on a pool-acquired context and
// detaches the stats — the implementation behind every Scheme.Query.
func queryPooled(run func(c *QueryCtx) Result) Result {
	c := AcquireQueryCtx()
	res := run(c)
	res.Stats = res.Stats.Clone()
	ReleaseQueryCtx(c)
	return res
}

// stageDegenerate stages the two first-round membership probes of §3.1.
func stageDegenerate(cp *cellprobe.QueryCtx, idx *Index, x bitvec.Vector) {
	cp.Stage(idx.Tables.Exact.Table(), idx.Tables.Exact.Address(x))
	cp.Stage(idx.Tables.Near.Table(), idx.Tables.Near.Address(x))
}

// degenerateAnswer inspects the two membership words; ok reports a hit.
func degenerateAnswer(exact, near cellprobe.Word) (idx int, ok bool) {
	if exact.Kind == cellprobe.Point {
		return exact.Index, true
	}
	if near.Kind == cellprobe.Point {
		return near.Index, true
	}
	return -1, false
}

// errNoAnswer is produced when the completion round finds every probed
// level EMPTY — possible only when the sketch assumptions failed.
func errNoAnswer(l, u int) error {
	return fmt.Errorf("core: completion found no nonempty level in (%d, %d]", l, u)
}
