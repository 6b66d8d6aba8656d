package core

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
)

// Algo1 is the simple k-round scheme of Theorem 9 (Algorithm 1 in the
// paper): a τ-way search over the ⌈log_α d⌉+1 ball levels. It maintains
// thresholds l < u with the invariant C_l = ∅ and C_u ≠ ∅; each shrinking
// round probes τ−1 grid levels in parallel and narrows [l, u] by a factor
// ~τ, and the completion round scans the remaining gap. Any point found in
// the first nonempty level C_i with C_{i−1} = ∅ is a γ-approximate nearest
// neighbor (Assumption 2: B_i ⊆ C_i ⊆ B_{i+1}).
type Algo1 struct {
	idx *Index
	k   int
	tau int
}

// NewAlgo1 builds the scheme with round budget k ≥ 1 on the shared index.
// τ is the smallest integer ≥ 2 with τ·(τ/2)^{k−1} ≥ ⌈log_α d⌉, realizing
// the paper's τ = Θ((log d)^{1/k}).
func NewAlgo1(idx *Index, k int) *Algo1 {
	if k < 1 {
		panic("core: Algo1 needs k >= 1")
	}
	return &Algo1{idx: idx, k: k, tau: algo1Tau(idx.Fam.L, k)}
}

func algo1Tau(levels, k int) int {
	if k == 1 {
		// No shrinking rounds: the completion round scans every level.
		return levels + 1
	}
	for tau := 2; ; tau++ {
		// τ·(τ/2)^{k−1} ≥ levels, computed in floats to avoid overflow.
		prod := float64(tau)
		for i := 1; i < k; i++ {
			prod *= float64(tau) / 2
			if prod >= float64(levels) {
				break
			}
		}
		if prod >= float64(levels) {
			return tau
		}
	}
}

// Name implements Scheme.
func (a *Algo1) Name() string { return fmt.Sprintf("algo1(k=%d)", a.k) }

// Rounds implements Scheme.
func (a *Algo1) Rounds() int { return a.k }

// Tau exposes the per-round parallelism for the tradeoff experiments.
func (a *Algo1) Tau() int { return a.tau }

// ProbeBound returns the scheme's worst-case probe count
// (τ−1)(k−1) + τ + 2, the quantity Theorem 9 bounds by O(k(log d)^{1/k}).
func (a *Algo1) ProbeBound() int {
	if a.k == 1 {
		return a.idx.Fam.L + 2
	}
	return (a.tau-1)*(a.k-1) + a.tau + 2
}

// Query implements Scheme via a pooled execution context.
func (a *Algo1) Query(x bitvec.Vector) Result {
	return queryPooled(func(c *QueryCtx) Result { return a.QueryWithCtx(x, c) })
}

// The algorithm is stated once, as three steps over the search state a
// QueryCtx carries (l, u, first, completion, grid), and driven two ways:
// QueryWithCtx runs one query, QueryEachWithCtx a chunk of queries in
// lock step. Both are start, then { stage; flush; advance } until advance
// reports an outcome.

// start binds c to query x and plans its first round.
func (a *Algo1) start(x bitvec.Vector, c *QueryCtx) {
	c.begin(a.idx, x, a.k)
	c.l, c.u, c.first = 0, a.idx.Fam.L, true
	a.plan(c)
}

// plan decides c's next round from its gap (l, u]: the completion round
// scans every remaining level, a shrinking round the τ−1 grid levels.
func (a *Algo1) plan(c *QueryCtx) {
	c.completion = c.u-c.l < a.tau || c.cp.RoundsLeft() <= 1
	c.grid = c.grid[:0]
	if c.completion {
		for i := c.l + 1; i <= c.u; i++ {
			c.grid = append(c.grid, i)
		}
	} else {
		c.grid = appendShrinkGrid(c.grid, c.l, c.u, a.tau)
	}
}

// stage stages the planned round's probes: the two degenerate-case cells
// in the first round, then T_i[M_i·x] for every grid level i.
func (a *Algo1) stage(c *QueryCtx) {
	idx, cp := a.idx, c.cp
	if c.first {
		stageDegenerate(cp, idx, c.sk.x)
	}
	for _, i := range c.grid {
		bt := idx.Tables.Ball[i]
		cp.Stage(bt.Table(), bt.AddressOfSketch(c.sk.accurate(i)))
	}
}

// advance consumes the flushed round's contents. It reports the query's
// outcome when the round settles it; otherwise it narrows the gap and
// plans the next round.
func (a *Algo1) advance(c *QueryCtx, words []cellprobe.Word) (Result, bool) {
	cp := c.cp
	if c.first {
		if ans, ok := degenerateAnswer(words[0], words[1]); ok {
			return Result{Index: ans, Stats: cp.Stats(), Degenerate: true}, true
		}
		words = words[2:]
		c.first = false
	}
	l, u, grid := c.l, c.u, c.grid
	if c.completion {
		for _, w := range words {
			if w.Kind == cellprobe.Point {
				return Result{Index: w.Index, Stats: cp.Stats()}, true
			}
		}
		return Result{Index: -1, Stats: cp.Stats(), Violated: true, Err: errNoAnswer(l, u)}, true
	}
	// Shrinking round: r* is the smallest grid position with a nonempty
	// level; the gap collapses to (ρ(r*−1), ρ(r*)].
	rStar := len(grid) // == τ−1 positions; τ means "none nonempty"
	for gi, w := range words {
		if w.Kind == cellprobe.Point {
			rStar = gi
			break
		}
	}
	var newL, newU int
	if rStar == len(grid) {
		newL, newU = grid[len(grid)-1], u
	} else if rStar == 0 {
		newL, newU = l, grid[0]
	} else {
		newL, newU = grid[rStar-1], grid[rStar]
	}
	if newL < l || newU > u || newL >= newU {
		return Result{Index: -1, Stats: cp.Stats(), Violated: true,
			Err: fmt.Errorf("core: invariant broke: [%d,%d] -> [%d,%d]", l, u, newL, newU)}, true
	}
	c.l, c.u = newL, newU
	a.plan(c)
	return Result{}, false
}

// QueryWithCtx runs the algorithm on a caller-supplied execution context
// (pooled by the serving layers; recording for the communication
// translation). The Result's Stats alias context-owned memory.
func (a *Algo1) QueryWithCtx(x bitvec.Vector, c *QueryCtx) Result {
	a.start(x, c)
	for {
		a.stage(c)
		words, err := c.cp.Flush()
		if err != nil {
			return Result{Index: -1, Stats: c.cp.Stats(), Err: err}
		}
		if res, done := a.advance(c, words); done {
			return res
		}
	}
}

// QueryEachWithCtx answers xs[q] into out[q] for every q, running the
// queries round-synchronously on b: all live queries stage round r, one
// joint flush resolves it (cellprobe.FlushEach: every table answers the
// round's probes to it together, its cold cells with one scan), all
// advance — k synchronisation points, which is what a k-round scheme
// licenses, since inside a round every address is known before anything
// is read. A query that finishes (a degenerate answer, an error, its
// completion round) drops out and the rest continue.
//
// Each query's outcome and accounting are those of QueryWithCtx run alone:
// the steps are the same functions, and the joint flush charges a context
// what its own Flush would. Sketching is the querier's own work and costs
// no probes, so each round's sketches M_i·x are computed per level for all
// the queries that probe it (sketch.Matrix.ApplyBatchInto walks the matrix
// once for the group). out[q].Stats aliases memory owned by b, valid until
// b's next use.
func (a *Algo1) QueryEachWithCtx(xs []bitvec.Vector, b *BatchCtx, out []Result) {
	b.bind(len(xs))
	live := b.live[:0]
	for q, x := range xs {
		a.start(x, b.ctxs[q])
		live = append(live, q)
	}
	b.live = live
	for len(live) > 0 {
		b.sketchGrids(a.idx.Fam, live)
		cps, errs := b.cps[:0], b.errs[:len(live)]
		for _, q := range live {
			a.stage(b.ctxs[q])
			cps = append(cps, b.ctxs[q].cp)
		}
		cellprobe.FlushEach(cps, errs)
		still := live[:0]
		for j, q := range live {
			c := b.ctxs[q]
			if errs[j] != nil {
				out[q] = Result{Index: -1, Stats: c.cp.Stats(), Err: errs[j]}
			} else if res, done := a.advance(c, c.cp.Words()); done {
				out[q] = res
			} else {
				still = append(still, q)
			}
		}
		b.cps, live = cps, still
	}
}

// appendShrinkGrid appends the probe levels ρ(r) = ⌊l + r(u−l)/τ⌋ for
// r = 1..τ−1 to dst (the context's grid scratch). The guard u−l ≥ τ makes
// consecutive grid points distinct.
func appendShrinkGrid(dst []int, l, u, tau int) []int {
	for r := 1; r <= tau-1; r++ {
		dst = append(dst, l+r*(u-l)/tau)
	}
	return dst
}
