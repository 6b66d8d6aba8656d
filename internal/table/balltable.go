// Package table implements the paper's table structures on top of the
// cell-probe oracle machinery:
//
//   - BallTable: the tables T_0 … T_{⌈log_α d⌉} of Theorem 9, whose cell at
//     address j stores some database point z with dist(j, M_i z) below the
//     level threshold, or EMPTY;
//   - AuxTable: Algorithm 2's auxiliary tables T̃_{i,j}, whose cells answer
//     "which of these coarse sets D_{i,·} is large relative to C_i";
//   - Membership tables for the two degenerate cases (x ∈ B, and x within
//     distance 1 of B), standing in for the paper's perfect hashing.
//
// Cells are computed lazily (see package cellprobe); the content of every
// cell is exactly what the paper's preprocessing would have stored. All
// addresses are binary cellprobe.Addr values — a typed table tag plus the
// packed payload words — built directly from the query's sketch words with
// no string serialization on the probe path.
//
// Every index component is stored flat and pointer-free: the database, the
// per-level database sketches, and the membership key index all live in
// contiguous backing arrays (bitvec.Block, []uint32 slots), so a Set can
// be materialized in parallel, written to a snapshot wholesale, and
// rebound to loaded arrays without per-entry work (see internal/snapshot).
package table

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/sketch"
)

// BallTable is one of the tables T_i of Theorem 9. Its address space is
// {0,1}^{c₁ log n} (every possible value of the sketch M_i·x); the cell at
// address j stores a database point z with dist(j, M_i z) ≤ θ_i if one
// exists, and EMPTY otherwise. Probing T_i[M_i x] therefore returns a point
// of C_i (the sketch approximation of the ball B_i) or certifies C_i = ∅.
type BallTable struct {
	Level  int
	fam    *sketch.Family
	db     *bitvec.Block
	oracle *cellprobe.Oracle

	mu    sync.Mutex
	ready atomic.Bool
	sk    bitvec.Block // M_level·z for every database point, flat
}

// NewBallTable builds T_level for the database under the shared family.
func NewBallTable(fam *sketch.Family, db *bitvec.Block, level int, meter *cellprobe.Meter) *BallTable {
	t := &BallTable{Level: level, fam: fam, db: db}
	rows := fam.AccurateRows()
	// Model accounting: 2^{rows} cells, each one word of O(d) bits (a point).
	t.oracle = cellprobe.NewOracleEval(
		cellprobe.BallTag(level),
		float64(rows),
		wordBitsForPoint(fam.P.D),
		meter,
		t,
	)
	return t
}

func wordBitsForPoint(d int) int {
	// A cell stores either EMPTY or one d-bit point; one extra bit tags the
	// two cases. Word size is O(d) as in Theorems 9/10.
	return d + 1
}

// Table returns the cell-probe view of this table.
func (t *BallTable) Table() cellprobe.Table { return t.oracle }

// Address returns the address the algorithm probes for query x: the sketch
// M_level·x, packed. It computes the sketch; callers that already hold one
// (the schemes' per-query scratch) use AddressOfSketch.
func (t *BallTable) Address(x bitvec.Vector) cellprobe.Addr {
	return t.AddressOfSketch(t.fam.Accurate[t.Level].Apply(x))
}

// AddressOfSketch returns the address for an already-computed sketch: the
// sketch words become the payload directly, with no serialization.
func (t *BallTable) AddressOfSketch(sk bitvec.Vector) cellprobe.Addr {
	return cellprobe.VecAddr(cellprobe.BallTag(t.Level), sk)
}

// ensureSketches materializes the flat sketch block on first use (the
// lazy path; the parallel build and the snapshot load fill it up front).
func (t *BallTable) ensureSketches() {
	if t.ready.Load() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ready.Load() {
		return
	}
	m := t.fam.Accurate[t.Level]
	sk := bitvec.NewBlock(t.db.Rows(), m.NumRows)
	m.ApplyBlockInto(sk, *t.db)
	t.sk = sk
	t.ready.Store(true)
}

// adoptSketches rebinds the table to an already-materialized sketch block
// (the snapshot load path). The block must hold one row of
// Words(AccurateRows()) words per database point.
func (t *BallTable) adoptSketches(sk bitvec.Block) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sk = sk
	t.ready.Store(true)
}

// SketchBlock materializes (if needed) and returns the flat per-point
// sketch block, shared not copied — the snapshot save path.
func (t *BallTable) SketchBlock() bitvec.Block {
	t.ensureSketches()
	return t.sk
}

// EvalCell implements cellprobe.Evaler: it computes the content the
// preprocessing stage would store at addr — the first database point, in
// database order, whose sketch is within the level threshold of the
// address, else EMPTY. It runs only on memo misses: the address payload is
// copied once to the stack and the flat sketch block is scanned by the
// bitvec first-match kernel, so a miss allocates nothing.
func (t *BallTable) EvalCell(addr cellprobe.Addr) cellprobe.Word {
	t.ensureSketches()
	if addr.Len() != t.sk.RowWords {
		// Malformed addresses do not occur in the model (every bit string of
		// the right length is a valid address); treat as EMPTY defensively.
		return cellprobe.EmptyWord
	}
	var buf [cellprobe.AddrWords]uint64
	key := addr.AppendPayload(buf[:0])
	if i := t.sk.FirstWithin(key, t.fam.AccurateThreshold(t.Level)); i >= 0 {
		return cellprobe.PointWord(i)
	}
	return cellprobe.EmptyWord
}

// EvalCells implements cellprobe.BatchEvaler: the cells of a round's
// misses in this table, each what EvalCell would return, found by one
// pass over the sketch block for all of them.
func (t *BallTable) EvalCells(addrs []cellprobe.Addr, out []cellprobe.Word) {
	t.ensureSketches()
	scan := cellScanPool.Get().(*cellScan)
	for i := range addrs {
		if addrs[i].Len() != t.sk.RowWords {
			out[i] = cellprobe.EmptyWord // malformed, as in EvalCell
			continue
		}
		scan.add(i, &addrs[i])
	}
	scan.resolve(&t.sk, t.fam.AccurateThreshold(t.Level), out)
}

// MembersOfC returns the indices of all database points in C_level for the
// given query sketch. This is *not* a model operation — it is used by tests
// and by the Lemma 8 validation experiment (E7).
func (t *BallTable) MembersOfC(sketchX bitvec.Vector) []int {
	return t.appendMembersOfC(nil, sketchX)
}

// appendMembersOfC is MembersOfC into caller-owned scratch (the auxiliary
// tables rebuild C_level on every cold cell).
func (t *BallTable) appendMembersOfC(dst []int, sketchX bitvec.Vector) []int {
	t.ensureSketches()
	return t.sk.AppendWithin(dst, sketchX, t.fam.AccurateThreshold(t.Level))
}

// CountC returns |C_level| for the given query sketch (test/validation use).
func (t *BallTable) CountC(sketchX bitvec.Vector) int {
	t.ensureSketches()
	return t.sk.CountWithin(sketchX, t.fam.AccurateThreshold(t.Level))
}

// DBSketch exposes the memoized sketch of database point i (package-internal
// plumbing for the auxiliary tables, which intersect with C_level).
func (t *BallTable) DBSketch(i int) bitvec.Vector {
	t.ensureSketches()
	return t.sk.Row(i)
}

// NominalLogCellsTotal returns log₂ of the combined cell count of all L+1
// ball tables, for the space experiment: (L+1)·2^{c₁ log n} cells.
func NominalLogCellsTotal(fam *sketch.Family) float64 {
	return float64(fam.AccurateRows()) + math.Log2(float64(fam.L+1))
}
