package table

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/par"
	"repro/internal/sketch"
)

// Set bundles every table the schemes probe for one (database, family)
// pair: the ball tables T_0..T_L, the auxiliary tables of Algorithm 2 (when
// the family has a coarse component), and the two degenerate-case
// membership tables. Storage is flat throughout — the database, the
// per-level sketches of the database, and the membership key index all
// live in contiguous backing arrays — so a Set materializes across a
// worker pool (Materialize) and round-trips through a snapshot wholesale
// (SketchBlocks/CoarseBlocks to save, NewSetFromBlocks to load).
type Set struct {
	Fam     *sketch.Family
	DBBlock bitvec.Block // the database, one flat array
	Meter   *cellprobe.Meter

	Ball  []*BallTable
	Aux   []*AuxTable // nil when Fam.Coarse == nil
	Exact *Membership
	Near  *Membership

	keys *pointKeyIndex

	// Row views of DBBlock (navigation convenience), built once on first
	// use: the header slice is O(n) to materialize, which would otherwise
	// be paid by every zero-copy snapshot open (DESIGN.md §9.1).
	vecOnce sync.Once
	vecs    []bitvec.Vector

	// Per-level coarse sketches of the database, N_j·z, flat per level and
	// materialized on first use (or up front by Materialize/the loader).
	coarseMu    []sync.Mutex
	coarseReady []atomic.Bool
	coarse      []bitvec.Block
}

// NewSet builds all tables for the database under the shared family. The
// points are copied into a flat block; per-level sketches stay lazy (use
// Materialize for the eager parallel build).
func NewSet(fam *sketch.Family, db []bitvec.Vector) *Set {
	return newSet(fam, bitvec.BlockOf(db))
}

func newSet(fam *sketch.Family, db bitvec.Block) *Set {
	s := &Set{Fam: fam, DBBlock: db, Meter: &cellprobe.Meter{}}
	s.keys = newPointKeyIndex(&s.DBBlock)
	s.Ball = make([]*BallTable, fam.L+1)
	for i := 0; i <= fam.L; i++ {
		s.Ball[i] = NewBallTable(fam, &s.DBBlock, i, s.Meter)
	}
	if fam.Coarse != nil {
		s.Aux = make([]*AuxTable, fam.L+1)
		for i := 0; i <= fam.L; i++ {
			s.Aux[i] = newAuxTable(s, i, s.Meter)
		}
		s.coarseMu = make([]sync.Mutex, fam.L+1)
		s.coarseReady = make([]atomic.Bool, fam.L+1)
		s.coarse = make([]bitvec.Block, fam.L+1)
	}
	s.Exact = NewMembership(&s.DBBlock, s.keys, fam.P.D, 0, s.Meter)
	s.Near = NewMembership(&s.DBBlock, s.keys, fam.P.D, 1, s.Meter)
	return s
}

// NewSetFromBlocks rebinds a Set to already-materialized storage — the
// snapshot load path. ball holds one sketch block per level; coarse is
// empty or one block per level. Only shapes are validated (contents are
// covered by the snapshot checksum); the membership key index is rebuilt
// from the database block, the one derived structure cheap enough to not
// be worth a format section.
func NewSetFromBlocks(fam *sketch.Family, db bitvec.Block, ball, coarse []bitvec.Block) (*Set, error) {
	if len(ball) != fam.L+1 {
		return nil, fmt.Errorf("table: %d ball sketch blocks, want %d", len(ball), fam.L+1)
	}
	if fam.Coarse == nil && len(coarse) != 0 {
		return nil, fmt.Errorf("table: %d coarse blocks for a family with no coarse component", len(coarse))
	}
	if fam.Coarse != nil && len(coarse) != fam.L+1 {
		return nil, fmt.Errorf("table: %d coarse blocks, want %d", len(coarse), fam.L+1)
	}
	n := db.Rows()
	s := newSet(fam, db)
	accWords := bitvec.Words(fam.AccurateRows())
	for i, b := range ball {
		if b.RowWords != accWords || b.Rows() != n {
			return nil, fmt.Errorf("table: ball sketch block %d is %dx%d words, want %dx%d",
				i, b.Rows(), b.RowWords, n, accWords)
		}
		s.Ball[i].adoptSketches(b)
	}
	if fam.Coarse != nil {
		coarseWords := bitvec.Words(fam.CoarseRows())
		for j, b := range coarse {
			if b.RowWords != coarseWords || b.Rows() != n {
				return nil, fmt.Errorf("table: coarse sketch block %d is %dx%d words, want %dx%d",
					j, b.Rows(), b.RowWords, n, coarseWords)
			}
			s.coarse[j] = b
			s.coarseReady[j].Store(true)
		}
	}
	return s, nil
}

// Vectors returns per-row views of the database block, materializing the
// header slice once on first use.
func (s *Set) Vectors() []bitvec.Vector {
	s.vecOnce.Do(func() { s.vecs = s.DBBlock.Vectors() })
	return s.vecs
}

// Materialize eagerly computes every lazily-built component — the per-level
// accurate and coarse sketches of the database — across a worker pool.
// One task per (family, level); after it returns, queries trigger no
// sketch builds and a snapshot save copies nothing.
func (s *Set) Materialize(workers int) {
	tasks := len(s.Ball)
	if s.Fam.Coarse != nil {
		tasks += len(s.coarse)
	}
	par.Do(workers, tasks, func(t int) {
		if t < len(s.Ball) {
			s.Ball[t].ensureSketches()
		} else {
			s.coarseDBSketches(t - len(s.Ball))
		}
	})
}

// SketchBlocks materializes and returns the per-level accurate sketch
// blocks (shared storage) — the snapshot save path.
func (s *Set) SketchBlocks() []bitvec.Block {
	out := make([]bitvec.Block, len(s.Ball))
	for i, b := range s.Ball {
		out[i] = b.SketchBlock()
	}
	return out
}

// CoarseBlocks materializes and returns the per-level coarse sketch
// blocks (empty when the family has no coarse component).
func (s *Set) CoarseBlocks() []bitvec.Block {
	if s.Fam.Coarse == nil {
		return nil
	}
	out := make([]bitvec.Block, len(s.coarse))
	for j := range s.coarse {
		out[j] = s.coarseDBSketches(j)
	}
	return out
}

// sizeCut returns the Algorithm 2 size threshold n^{-1/s}·|C| as an integer
// cut: |D| > cut means D is "large".
func (s *Set) sizeCut(cSize int) int {
	sv := s.Fam.P.S
	if sv <= 0 {
		sv = 1
	}
	return int(math.Floor(math.Pow(float64(s.Fam.P.N), -1/sv) * float64(cSize)))
}

// coarseDBSketches returns the flat block of N_level·z over every database
// point, computed once per level on first use.
func (s *Set) coarseDBSketches(level int) bitvec.Block {
	if s.coarseReady[level].Load() {
		return s.coarse[level]
	}
	s.coarseMu[level].Lock()
	defer s.coarseMu[level].Unlock()
	if s.coarseReady[level].Load() {
		return s.coarse[level]
	}
	m := s.Fam.Coarse[level]
	sk := bitvec.NewBlock(s.DBBlock.Rows(), m.NumRows)
	m.ApplyBlockInto(sk, s.DBBlock)
	s.coarse[level] = sk
	s.coarseReady[level].Store(true)
	return sk
}

// SpaceReport summarizes nominal (model) and simulated (materialized) space.
type SpaceReport struct {
	NominalLogCells  float64 // log₂ of total model cell count over all tables
	MaterializedWord int     // cells actually evaluated by the simulator
	CellEvals        int64
	MemoHits         int64
}

// Space computes the space accounting used by experiment E8.
func (s *Set) Space() SpaceReport {
	logs := make([]float64, 0, 2*len(s.Ball)+2)
	materialized := 0
	add := func(t cellprobe.Table) {
		logs = append(logs, t.NominalLogCells())
		if o, ok := t.(*cellprobe.Oracle); ok {
			materialized += o.MemoSize()
		}
	}
	for _, b := range s.Ball {
		add(b.Table())
	}
	for _, a := range s.Aux {
		if a != nil {
			add(a.Table())
		}
	}
	add(s.Exact.Table())
	add(s.Near.Table())
	return SpaceReport{
		NominalLogCells:  logSumExp2(logs),
		MaterializedWord: materialized,
		CellEvals:        s.Meter.CellEvals(),
		MemoHits:         s.Meter.MemoHits(),
	}
}

// logSumExp2 returns log₂(Σ 2^{x}) over the inputs, stably.
func logSumExp2(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Exp2(x - m)
	}
	return m + math.Log2(sum)
}
