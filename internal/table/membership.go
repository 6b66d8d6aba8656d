package table

import (
	"repro/internal/bitvec"
	"repro/internal/cellprobe"
)

// Membership handles the two degenerate cases of §3.1: "is x a database
// point" and "is x within Hamming distance 1 of the database". The paper
// solves each with perfect hashing on a table of quadratic size and one
// probe; here the oracle plays the perfectly-hashed table — the address is
// the query point itself (packed words, no serialization), the cell holds
// the matching database point or EMPTY. Both radii share the Set's binary
// pointKeyIndex over the flat database block, so neither building nor
// probing the tables materializes a key.
type Membership struct {
	radius int // 0: exact membership; 1: the N₁(B) neighborhood
	db     *bitvec.Block
	index  *pointKeyIndex
	oracle *cellprobe.Oracle
}

// NewMembership builds the degenerate-case table for radius 0 or 1 over
// the flat database block, sharing the Set-owned key index.
func NewMembership(db *bitvec.Block, keys *pointKeyIndex, d, radius int, meter *cellprobe.Meter) *Membership {
	if radius != 0 && radius != 1 {
		panic("table: membership radius must be 0 or 1")
	}
	tag := cellprobe.MemberTag(radius)
	m := &Membership{radius: radius, db: db, index: keys}
	// Perfect hashing of n keys needs O(n²) cells (or O(n) with two levels);
	// we account the classic quadratic-size FKS top level. For radius 1 the
	// key set is N₁(B) with at most (d+1)n points.
	logCells := 2 * log2ceil(db.Rows()+1)
	if radius == 1 {
		logCells = 2 * (log2ceil(db.Rows()+1) + log2ceil(d+1))
	}
	m.oracle = cellprobe.NewOracleEval(tag, logCells, wordBitsForPoint(d), meter, m)
	return m
}

// Table returns the cell-probe view.
func (m *Membership) Table() cellprobe.Table { return m.oracle }

// Address returns the cell address for query x: the point's words.
func (m *Membership) Address(x bitvec.Vector) cellprobe.Addr {
	return cellprobe.VecAddr(cellprobe.MemberTag(m.radius), x)
}

// EvalCell implements cellprobe.Evaler; it runs only on memo misses. The
// address payload is copied once to the stack; the key lookup and the
// radius-1 scan both work on those flat words, so a miss allocates nothing
// (for points up to cellprobe.AddrWords words).
func (m *Membership) EvalCell(addr cellprobe.Addr) cellprobe.Word {
	if addr.Len() != m.db.RowWords {
		// Malformed addresses do not occur in the model; EMPTY defensively.
		return cellprobe.EmptyWord
	}
	var buf [cellprobe.AddrWords]uint64
	key := addr.AppendPayload(buf[:0])
	if i, ok := m.index.lookup(key); ok {
		return cellprobe.PointWord(i)
	}
	if m.radius == 0 {
		return cellprobe.EmptyWord
	}
	// Radius 1: the cell for x stores any z ∈ B with dist(x, z) ≤ 1; the
	// first match in database order is what preprocessing would store.
	if i := m.db.FirstWithin(key, 1); i >= 0 {
		return cellprobe.PointWord(i)
	}
	return cellprobe.EmptyWord
}

// EvalCells implements cellprobe.BatchEvaler. Each cell is first looked up
// in the key index, as in EvalCell; the radius-1 cells whose address is no
// database point share one pass over the database block.
func (m *Membership) EvalCells(addrs []cellprobe.Addr, out []cellprobe.Word) {
	scan := cellScanPool.Get().(*cellScan)
	var buf [cellprobe.AddrWords]uint64
	for i := range addrs {
		out[i] = cellprobe.EmptyWord
		if addrs[i].Len() != m.db.RowWords {
			continue // malformed, as in EvalCell
		}
		if p, ok := m.index.lookup(addrs[i].AppendPayload(buf[:0])); ok {
			out[i] = cellprobe.PointWord(p)
		} else if m.radius == 1 {
			scan.add(i, &addrs[i])
		}
	}
	scan.resolve(m.db, 1, out)
}
