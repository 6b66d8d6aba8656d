package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/table"
)

// CaseCounters tallies which branch each shrinking phase took, across all
// queries of one Algo2 instance. Purely observational (tests and the
// ablation benches read it); counted atomically so concurrent queries are
// safe.
type CaseCounters struct {
	Case1       int64 // r* = 1: upper threshold collapses, no second round
	Case2       int64 // probe EMPTY: both thresholds move
	Case3       int64 // probe non-EMPTY: |C_u| shrinks by ~n^{-1/s}
	Completions int64
}

// Algo2 is the sophisticated scheme of Theorem 10 (Algorithm 2 in the
// paper). Each shrinking *phase* spends at most two rounds: the first
// probes T_u[M_u x] plus ⌈(τ−1)/s⌉ auxiliary cells, each of which batches
// up to s coarse set-size tests |D_{u,ρ(r)}| ≷ n^{−1/s}|C_u|; depending on
// the smallest "large" grid position r*, the second round probes a single
// ball cell to decide between CASE 2 (both thresholds move) and CASE 3
// (the upper set shrinks: |C_{u'}| ≤ 2n^{−1/s}|C_u|). The completion round
// fires once the gap drops below max(3τ, k).
type Algo2 struct {
	idx  *Index
	k    int
	tau  int
	s    float64 // the real-valued s of §3.2 (exponent in n^{−1/s})
	sCap int     // group capacity: coarse tests per auxiliary probe

	cases CaseCounters
}

// NewAlgo2 builds the scheme with round budget k ≥ 2 on an index whose
// family includes the coarse matrices (Params.S > 0 at build time).
func NewAlgo2(idx *Index, k int) *Algo2 {
	if k < 2 {
		panic("core: Algo2 needs k >= 2")
	}
	if idx.Fam.Coarse == nil {
		panic(fmt.Sprintf("core: Algo2 needs the coarse family N_j, and this index has none: "+
			"it was built for Algorithm 1 (Params.S = %v <= 0)", idx.P.S))
	}
	s := idx.P.S
	sCap := int(math.Floor(s))
	if sCap < 1 {
		sCap = 1
	}
	return &Algo2{idx: idx, k: k, s: s, sCap: sCap, tau: algo2Tau(idx.Fam.L, k, s)}
}

// algo2Tau returns the smallest integer τ ≥ 2 with
// (τ/2)^{(k−1)/2−2s} ≥ ⌈L/k⌉, the condition in §3.2 that bounds the number
// of gap-shrinking phases by (k−1)/2 − 2s. With s set by the defaulting
// rule, the exponent equals k/c and τ = Θ(((log d)/k)^{c/k}); c enters
// only through s.
func algo2Tau(levels, k int, s float64) int {
	exp := (float64(k)-1)/2 - 2*s
	if exp < 1 {
		exp = 1
	}
	target := math.Ceil(float64(levels) / float64(k))
	if target < 1 {
		target = 1
	}
	tau := int(math.Ceil(2 * math.Pow(target, 1/exp)))
	if tau < 2 {
		tau = 2
	}
	return tau
}

// Name implements Scheme.
func (a *Algo2) Name() string { return fmt.Sprintf("algo2(k=%d)", a.k) }

// Rounds implements Scheme.
func (a *Algo2) Rounds() int { return a.k }

// Tau exposes the grid width for the tradeoff experiments.
func (a *Algo2) Tau() int { return a.tau }

// S exposes the group parameter.
func (a *Algo2) S() float64 { return a.s }

// Cases returns a snapshot of the phase-branch counters.
func (a *Algo2) Cases() CaseCounters {
	return CaseCounters{
		Case1:       atomic.LoadInt64(&a.cases.Case1),
		Case2:       atomic.LoadInt64(&a.cases.Case2),
		Case3:       atomic.LoadInt64(&a.cases.Case3),
		Completions: atomic.LoadInt64(&a.cases.Completions),
	}
}

// ProbeBound returns the worst-case probe count of §3.2 equation (4):
// (k−1)/2 · (⌈(τ−1)/s⌉ + 2) + max(3τ, k).
func (a *Algo2) ProbeBound() int {
	perPhase := (a.tau-2)/a.sCap + 1 + 2
	completion := 3 * a.tau
	if a.k > completion {
		completion = a.k
	}
	return (a.k-1)/2*perPhase + completion + 2
}

// Query implements Scheme via a pooled execution context.
func (a *Algo2) Query(x bitvec.Vector) Result {
	return queryPooled(func(c *QueryCtx) Result { return a.QueryWithCtx(x, c) })
}

// QueryWithCtx runs the algorithm on a caller-supplied execution context.
// The Result's Stats alias context-owned memory.
func (a *Algo2) QueryWithCtx(x bitvec.Vector, c *QueryCtx) Result {
	idx := a.idx
	c.begin(idx, x, a.k)
	cp := c.cp
	l, u := 0, idx.Fam.L
	first := true
	violated := false

	completionGap := 3 * a.tau
	if a.k > completionGap {
		completionGap = a.k
	}

	for {
		if u-l < completionGap || cp.RoundsLeft() <= 2 {
			return a.completion(x, c, l, u, first, violated)
		}
		// ---- Shrinking phase, first round -------------------------------
		grid := appendShrinkGrid(c.grid[:0], l, u, a.tau) // ρ(1) .. ρ(τ−1)
		c.grid = grid
		if first {
			stageDegenerate(cp, idx, x)
		}
		topBall := idx.Tables.Ball[u]
		cp.Stage(topBall.Table(), topBall.AddressOfSketch(c.sk.accurate(u)))
		// Algorithm 2's packing of the τ−1 coarse tests into ⌈(τ−1)/s⌉
		// auxiliary probes: consecutive groups of at most sCap grid levels.
		aux := idx.Tables.Aux[u]
		for g := 0; g < len(grid); g += a.sCap {
			end := g + a.sCap
			if end > len(grid) {
				end = len(grid)
			}
			levels := grid[g:end]
			coarse := c.coarse[:0]
			for _, lv := range levels {
				coarse = append(coarse, c.sk.coarseAt(lv))
			}
			c.coarse = coarse
			q := table.AuxQuery{SketchX: c.sk.accurate(u), Levels: levels, Coarse: coarse}
			cp.Stage(aux.Table(), aux.Address(q))
		}
		words, err := cp.Flush()
		if err != nil {
			return Result{Index: -1, Stats: cp.Stats(), Err: err}
		}
		if first {
			if ans, ok := degenerateAnswer(words[0], words[1]); ok {
				return Result{Index: ans, Stats: cp.Stats(), Degenerate: true}
			}
			words = words[2:]
			first = false
		}
		topWord := words[0]
		if topWord.Kind == cellprobe.Empty {
			// C_u = ∅ contradicts the loop invariant: Assumption 2 failed.
			violated = true
		}
		auxWords := words[1:]
		// r* = smallest grid position (1-based over [1, τ−1]) whose D set is
		// large; τ when none is.
		rStar := a.tau
		for gi, w := range auxWords {
			if w.Kind == cellprobe.Int && w.Value > 0 {
				rStar = gi*a.sCap + w.Value
				break
			}
		}
		// ---- Case analysis ----------------------------------------------
		rho := func(r int) int { // ρ(r) over the full grid, ρ(0)=l, ρ(τ)=u
			if r <= 0 {
				return l
			}
			if r >= a.tau {
				return u
			}
			return grid[r-1]
		}
		var newL, newU int
		switch {
		case rStar == 1: // CASE 1: no second round in this phase
			atomic.AddInt64(&a.cases.Case1, 1)
			newL, newU = l, rho(1)+1
		default:
			probe := rho(rStar-1) - 1
			if probe < 0 {
				probe = 0
			}
			bt := idx.Tables.Ball[probe]
			cp.Stage(bt.Table(), bt.AddressOfSketch(c.sk.accurate(probe)))
			bw, err := cp.Flush()
			if err != nil {
				return Result{Index: -1, Stats: cp.Stats(), Err: err}
			}
			if bw[0].Kind == cellprobe.Empty { // CASE 2
				atomic.AddInt64(&a.cases.Case2, 1)
				newL = probe
				newU = u
				if rStar < a.tau {
					newU = rho(rStar) + 1
				}
			} else { // CASE 3: C_{ρ(r*−1)−1} nonempty; upper set shrinks
				atomic.AddInt64(&a.cases.Case3, 1)
				newL, newU = l, probe
			}
		}
		if newU > u {
			newU = u
		}
		if newL >= newU || newL < l {
			// Possible only under assumption failure; salvage via completion.
			violated = true
			return a.completion(x, c, l, u, first, violated)
		}
		l, u = newL, newU
	}
}

// completion runs the final round: scan levels (l, u] and return the first
// nonempty one. It also carries the degenerate probes if no round ran yet.
func (a *Algo2) completion(x bitvec.Vector, c *QueryCtx, l, u int, first, violated bool) Result {
	atomic.AddInt64(&a.cases.Completions, 1)
	idx := a.idx
	cp := c.cp
	if first {
		stageDegenerate(cp, idx, x)
	}
	for i := l + 1; i <= u; i++ {
		bt := idx.Tables.Ball[i]
		cp.Stage(bt.Table(), bt.AddressOfSketch(c.sk.accurate(i)))
	}
	words, err := cp.Flush()
	if err != nil {
		return Result{Index: -1, Stats: cp.Stats(), Err: err, Violated: violated}
	}
	if first {
		if ans, ok := degenerateAnswer(words[0], words[1]); ok {
			return Result{Index: ans, Stats: cp.Stats(), Degenerate: true}
		}
		words = words[2:]
	}
	for _, w := range words {
		if w.Kind == cellprobe.Point {
			return Result{Index: w.Index, Stats: cp.Stats(), Violated: violated}
		}
	}
	return Result{Index: -1, Stats: cp.Stats(), Violated: true, Err: errNoAnswer(l, u)}
}
