package sketch

import (
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/par"
	"repro/internal/rng"
)

// Params configures a sketch family for one (d, n, γ) problem instance.
// C1 and C2 are the paper's c₁, c₂ from Definition 7 — there they must
// exceed 64/(1−e^{(1−α)/2})² for the union bound; here they are calibrated
// empirically (see DESIGN.md §3.2) and validated by experiment E7.
type Params struct {
	D     int     // dimension of the Hamming cube
	N     int     // database size (rows scale with log n)
	Gamma float64 // approximation ratio γ > 1 (α = √γ)
	C1    float64 // accurate-sketch row multiplier: rows = C1·log₂(n)
	C2    float64 // coarse-sketch row multiplier: rows = C2·log₂(n)/S
	S     float64 // Algorithm 2's s parameter; <= 0 means no coarse family
	Seed  uint64  // public randomness shared by prober and tables

	// CutFraction places the membership threshold at f(αⁱ) + CutFraction·δ
	// between the expected sketch fractions at radii αⁱ and αⁱ⁺¹.
	// Zero selects the default 0.5 (midpoint). Exposed for the threshold
	// ablation (experiment E11).
	CutFraction float64
	// LiteralDeltaCut reproduces the paper's Definition 7 test exactly as
	// written — threshold δ(αⁱ,α)·rows, *below* the expectation at radius
	// αⁱ — for the ablation documenting why the midpoint reading is the
	// correct one (DESIGN.md §3.3).
	LiteralDeltaCut bool
}

// DefaultC1 and DefaultC2 are the row multipliers the schemes run with.
// They do not meet the paper's budget: at c₁ = 24, experiment E7
// (annsctl paper -run E7 -quick -seed 42, d = 1 024, n = 200) measures the
// Assumption 2 conjunction — every level nested at once, which the paper
// needs with probability ≥ 3/4 — at 0.00 (0.25 at c₁ = 96), while each
// level nests on its own with frequency 0.94. E1 and E2 still report
// success 1.00 at these defaults.
const (
	DefaultC1 = 24.0
	DefaultC2 = 24.0
)

// Family holds the per-level matrices of Definition 7: Accurate[i] = M_i
// and Coarse[j] = N_j for 0 <= i, j <= L, where L = ⌈log_α d⌉.
//
// The family is the *public randomness* of the schemes: the same Family
// value is handed to the table oracles (to build cell contents) and to the
// cell-probing algorithm (to compute addresses M_i·x), exactly as in the
// paper's public-coin presentation.
type Family struct {
	P        Params
	Alpha    float64
	L        int // top level; Radius(L) >= d
	Accurate []*Matrix
	Coarse   []*Matrix // nil when P.S <= 0
}

// NewFamily draws the full matrix family from the seed in p.
func NewFamily(p Params) *Family { return NewFamilyParallel(p, 1) }

// NewFamilyParallel draws the same family as NewFamily across a worker
// pool: every matrix comes from its own rng.Split child (splitting does
// not advance the parent source), so the draw is bit-identical for any
// worker count and any completion order.
func NewFamilyParallel(p Params, workers int) *Family {
	f := newFamilyShell(p)
	p = f.P
	root := rng.New(p.Seed)
	accRows := rowCount(p.C1, p.N)
	f.Accurate = make([]*Matrix, f.L+1)
	var coarseRows int
	if p.S > 0 {
		coarseRows = rowCount(p.C2/p.S, p.N)
		f.Coarse = make([]*Matrix, f.L+1)
	}
	tasks := len(f.Accurate) + len(f.Coarse)
	par.Do(workers, tasks, func(t int) {
		if t <= f.L {
			prob := 1 / (4 * f.Radius(t))
			f.Accurate[t] = NewBernoulli(root.Split(uint64(t)), accRows, p.D, prob)
		} else {
			j := t - f.L - 1
			prob := 1 / (4 * f.Radius(j))
			f.Coarse[j] = NewBernoulli(root.Split(1<<32|uint64(j)), coarseRows, p.D, prob)
		}
	})
	return f
}

// newFamilyShell validates and normalizes p and derives alpha and L.
func newFamilyShell(p Params) *Family {
	if p.Gamma <= 1 {
		panic(fmt.Sprintf("sketch: gamma must exceed 1, got %v", p.Gamma))
	}
	if p.D < 2 || p.N < 2 {
		panic(fmt.Sprintf("sketch: degenerate instance d=%d n=%d", p.D, p.N))
	}
	if p.C1 <= 0 {
		p.C1 = DefaultC1
	}
	if p.C2 <= 0 {
		p.C2 = DefaultC2
	}
	alpha := math.Sqrt(p.Gamma)
	L := int(math.Ceil(math.Log(float64(p.D)) / math.Log(alpha)))
	if L < 1 {
		L = 1
	}
	return &Family{P: p, Alpha: alpha, L: L}
}

// Shape describes the derived geometry of the family NewFamily would
// build for p: the level count, the per-level Bernoulli scale base, and
// the row counts. The snapshot layer uses it to validate section lengths
// and to rebind loaded matrix blocks without drawing anything.
type Shape struct {
	L          int     // top level
	Alpha      float64 // per-level radius base (radius(i) = Alpha^i)
	AccRows    int     // rows of every accurate matrix M_i
	CoarseRows int     // rows of every coarse matrix N_j (0 when S <= 0)
}

// ShapeOf computes the family shape for p (after the same normalization
// NewFamily applies).
func ShapeOf(p Params) Shape {
	f := newFamilyShell(p)
	sh := Shape{L: f.L, Alpha: f.Alpha, AccRows: rowCount(f.P.C1, f.P.N)}
	if f.P.S > 0 {
		sh.CoarseRows = rowCount(f.P.C2/f.P.S, f.P.N)
	}
	return sh
}

// Prob returns the Bernoulli parameter matrices at level i are drawn
// with: 1/(4·αⁱ).
func (sh Shape) Prob(i int) float64 { return 1 / (4 * math.Pow(sh.Alpha, float64(i))) }

// NewFamilyFromMatrices rebinds a family to already-materialized matrices
// (the snapshot load path). The matrices must have the shapes NewFamily
// would have drawn for p; coarse may be nil when p.S <= 0.
func NewFamilyFromMatrices(p Params, accurate, coarse []*Matrix) (*Family, error) {
	f := newFamilyShell(p)
	if len(accurate) != f.L+1 {
		return nil, fmt.Errorf("sketch: %d accurate matrices, want %d", len(accurate), f.L+1)
	}
	if f.P.S > 0 && len(coarse) != f.L+1 {
		return nil, fmt.Errorf("sketch: %d coarse matrices, want %d", len(coarse), f.L+1)
	}
	if f.P.S <= 0 && len(coarse) != 0 {
		return nil, fmt.Errorf("sketch: %d coarse matrices for a family with S <= 0", len(coarse))
	}
	for i, m := range accurate {
		if m.Dim != p.D {
			return nil, fmt.Errorf("sketch: accurate matrix %d has dim %d, want %d", i, m.Dim, p.D)
		}
	}
	for j, m := range coarse {
		if m.Dim != p.D {
			return nil, fmt.Errorf("sketch: coarse matrix %d has dim %d, want %d", j, m.Dim, p.D)
		}
	}
	f.Accurate = accurate
	f.Coarse = coarse
	return f, nil
}

func rowCount(mult float64, n int) int {
	rows := int(math.Ceil(mult * math.Log2(float64(n))))
	if rows < 4 {
		rows = 4
	}
	return rows
}

// Radius returns αⁱ, the ball radius of level i.
func (f *Family) Radius(i int) float64 { return math.Pow(f.Alpha, float64(i)) }

// AccurateRows returns the number of rows of every M_i.
func (f *Family) AccurateRows() int { return f.Accurate[0].NumRows }

// CoarseRows returns the number of rows of every N_j (0 if no coarse family).
func (f *Family) CoarseRows() int {
	if f.Coarse == nil {
		return 0
	}
	return f.Coarse[0].NumRows
}

// AccurateThreshold returns the integer sketch-distance cut for membership
// in C_i: dist(M_i x, M_i z) <= AccurateThreshold(i) classifies z as within
// radius ~αⁱ of x. The cut sits at the midpoint f(αⁱ) + δ(αⁱ,α)/2 between
// the expected fractions at radii αⁱ and αⁱ⁺¹ (DESIGN.md §3.3).
func (f *Family) AccurateThreshold(i int) int {
	return f.thresholdFor(f.Radius(i), f.AccurateRows())
}

// CoarseThreshold is the analogous cut for the coarse matrices N_j,
// defining membership in D_{i,j}.
func (f *Family) CoarseThreshold(j int) int {
	if f.Coarse == nil {
		panic("sketch: no coarse family configured (Params.S <= 0)")
	}
	return f.thresholdFor(f.Radius(j), f.CoarseRows())
}

func (f *Family) thresholdFor(beta float64, rows int) int {
	if f.P.LiteralDeltaCut {
		return int(math.Floor(Delta(beta, f.Alpha) * float64(rows)))
	}
	frac := f.P.CutFraction
	if frac == 0 {
		frac = 0.5
	}
	p := 1 / (4 * beta)
	cut := ExpectedFraction(p, beta) + frac*Delta(beta, f.Alpha)
	return int(math.Floor(cut * float64(rows)))
}

// InC reports whether sketchZ is classified as a member of C_i relative to
// the query sketch sketchX (both under M_i).
func (f *Family) InC(i int, sketchX, sketchZ bitvec.Vector) bool {
	return bitvec.DistanceAtMost(sketchX, sketchZ, f.AccurateThreshold(i))
}

// InD reports whether coarse sketches classify z within level j, the
// D_{i,j} membership test of Definition 7 (the C_i restriction is applied
// by the caller, which intersects with the accurate test).
func (f *Family) InD(j int, coarseX, coarseZ bitvec.Vector) bool {
	return bitvec.DistanceAtMost(coarseX, coarseZ, f.CoarseThreshold(j))
}

// NominalTableCells returns the paper's nominal cell count for one ball
// table T_i: 2^{c₁·log₂ n} = n^{c₁} addresses, in the log₂ domain to avoid
// overflow. Used only for space accounting (experiment E8).
func (f *Family) NominalTableCells() float64 {
	return float64(f.AccurateRows())
}
