package table

import (
	"sync"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
)

// AuxTable implements Algorithm 2's auxiliary tables T̃_{i,·} for one level
// i. In the paper there is a table T̃_{i,j} for every accurate sketch value
// j ∈ {0,1}^{c₁ log n}; here j is folded into the cell address (addressing
// a table and addressing memory are the same thing in the model), so one
// oracle serves the whole family at level i.
//
// Address layout (see DESIGN.md §3, substitution note): the payload carries
// ⟨j, w₀, (level₁, w₁), …, (level_{w₀}, w_{w₀})⟩ where j = M_i x,
// w_q = N_{level_q} x, packed word-aligned: the words of j, one count word,
// then per group member one level word followed by the words of the coarse
// sketch. Carrying the explicit level grid instead of the paper's ⟨l, u⟩
// pair removes a rounding mismatch between the table's and the algorithm's
// grid formulas while keeping the address space within the same
// poly(n)·polylog(d) cell budget.
//
// The cell content is the paper's: the smallest q ≤ w₀ such that
// |D_{i,level_q}| > n^{-1/s}·|C_i|, or the "none" sentinel otherwise
// (paper: s+1; here Int(0), which the algorithm treats identically).
type AuxTable struct {
	Level  int
	set    *Set
	oracle *cellprobe.Oracle

	members sync.Pool // *[]int: C_i member lists, reused across cold cells
}

func newAuxTable(set *Set, level int, meter *cellprobe.Meter) *AuxTable {
	t := &AuxTable{Level: level, set: set}
	t.members.New = func() any { return new([]int) }
	fam := set.Fam
	// Nominal cells: accurate sketch j (c₁ log n bits) × up to s coarse
	// sketches ((c₂/s) log n bits each) × level indices (≤ log₂(L+1) bits
	// each) × the count w₀. This is the model's poly(n) accounting.
	s := int(fam.P.S)
	if s < 1 {
		s = 1
	}
	logCells := float64(fam.AccurateRows()) +
		float64(s*fam.CoarseRows()) +
		float64(s+1)*log2ceil(fam.L+2)
	t.oracle = cellprobe.NewOracleEval(
		cellprobe.AuxTag(level),
		logCells,
		bitsForSmallInt(s+2),
		meter,
		t,
	)
	return t
}

func log2ceil(n int) float64 {
	b := 0
	for v := 1; v < n; v <<= 1 {
		b++
	}
	if b < 1 {
		b = 1
	}
	return float64(b)
}

func bitsForSmallInt(max int) int {
	return int(log2ceil(max + 1))
}

// Table returns the cell-probe view.
func (t *AuxTable) Table() cellprobe.Table { return t.oracle }

// AuxQuery is one group of Algorithm 2's first shrinking-phase round: the
// query sketch under M_level plus up to s (level, coarse-sketch) pairs.
type AuxQuery struct {
	SketchX bitvec.Vector   // M_level · x
	Levels  []int           // grid levels ρ(r) for this group, low to high
	Coarse  []bitvec.Vector // N_{Levels[q]} · x, parallel to Levels
}

// Address packs q into the binary cell address probed by the algorithm.
// The builder lives on the caller's stack, so address construction
// allocates nothing while the payload fits the inline capacity.
func (t *AuxTable) Address(q AuxQuery) cellprobe.Addr {
	if len(q.Levels) != len(q.Coarse) {
		panic("table: AuxQuery levels/coarse length mismatch")
	}
	var b cellprobe.AddrBuilder
	b.Reset(cellprobe.AuxTag(t.Level))
	b.Vec(q.SketchX)
	b.Uint(uint64(len(q.Levels)))
	for i, lv := range q.Levels {
		b.Uint(uint64(lv))
		b.Vec(q.Coarse[i])
	}
	return b.Addr()
}

// EvalCell implements cellprobe.Evaler: it reconstructs the sets C_i and
// D_{i,level_q} from the database and the public randomness, then applies
// the size test of the table-construction step of §3.2. Malformed payloads
// (impossible for algorithm-built addresses) yield the "none" sentinel
// defensively. Runs only on memo misses; the payload goes to the stack and
// the member list to pooled scratch, so a miss allocates nothing.
func (t *AuxTable) EvalCell(addr cellprobe.Addr) cellprobe.Word {
	fam := t.set.Fam
	jWords := bitvec.Words(fam.AccurateRows())
	cWords := bitvec.Words(fam.CoarseRows())
	if addr.Len() < jWords+1 {
		return cellprobe.IntWord(0)
	}
	var buf [cellprobe.AddrWords]uint64
	payload := addr.AppendPayload(buf[:0])
	count := payload[jWords]
	if count > uint64(addr.Len()) || addr.Len() != jWords+1+int(count)*(1+cWords) {
		return cellprobe.IntWord(0)
	}
	// Reconstruct C_i = {z : dist(j, M_i z) ≤ θ_i}.
	scratch := t.members.Get().(*[]int)
	members := t.set.Ball[t.Level].appendMembersOfC((*scratch)[:0], payload[:jWords])
	q := t.firstLarge(members, payload[jWords+1:], int(count))
	*scratch = members
	t.members.Put(scratch)
	return cellprobe.IntWord(q)
}

// firstLarge applies the size test to the address's (level, w) groups in
// order: it returns the smallest q ≤ count with |D_{i,level_q}| above the
// n^{-1/s}·|C_i| cut, where D_{i,level} = {z ∈ C_i : dist(w, N_level z) ≤
// θ'_level}, or 0 (none) when every tested D is small or a level is out
// of range.
func (t *AuxTable) firstLarge(cMembers []int, groups []uint64, count int) int {
	fam := t.set.Fam
	cWords := bitvec.Words(fam.CoarseRows())
	cut := t.set.sizeCut(len(cMembers))
	for q := 1; q <= count; q++ {
		lv, wq := int(groups[0]), groups[1:1+cWords]
		groups = groups[1+cWords:]
		if lv < 0 || lv > fam.L {
			return 0
		}
		sketches := t.set.coarseDBSketches(lv)
		if sketches.CountWithinRows(cMembers, wq, fam.CoarseThreshold(lv)) > cut {
			return q
		}
	}
	return 0
}
