package table

import (
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
)

// Reference evalers: the row-by-row loops the cold-cell path ran before
// the bitvec scan kernel — one Addr.Word call per word per row, a fresh
// payload slice and member list per auxiliary cell, no shared code with
// the kernel. UseReferenceEvalers swaps them in so a scheme-level test
// can hold the real tables to them, answers and accounting alike.

func refAddrDistanceAtMost(a *cellprobe.Addr, row bitvec.Vector, t int) bool {
	n := 0
	for i := range row {
		n += bits.OnesCount64(a.Word(i) ^ row[i])
		if n > t {
			return false
		}
	}
	return true
}

type refBall struct{ t *BallTable }

func (r refBall) EvalCell(addr cellprobe.Addr) cellprobe.Word {
	t := r.t
	t.ensureSketches()
	if addr.Len() != bitvec.Words(t.fam.AccurateRows()) {
		return cellprobe.EmptyWord
	}
	thr := t.fam.AccurateThreshold(t.Level)
	for i, n := 0, t.db.Rows(); i < n; i++ {
		if refAddrDistanceAtMost(&addr, t.sk.Row(i), thr) {
			return cellprobe.PointWord(i)
		}
	}
	return cellprobe.EmptyWord
}

type refMember struct{ m *Membership }

func (r refMember) EvalCell(addr cellprobe.Addr) cellprobe.Word {
	m := r.m
	if addr.Len() != m.db.RowWords {
		return cellprobe.EmptyWord
	}
	for radius := 0; radius <= m.radius; radius++ { // an equal point wins over a neighbour
		for i, n := 0, m.db.Rows(); i < n; i++ {
			if refAddrDistanceAtMost(&addr, m.db.Row(i), radius) {
				return cellprobe.PointWord(i)
			}
		}
	}
	return cellprobe.EmptyWord
}

type refAux struct{ t *AuxTable }

func (r refAux) EvalCell(addr cellprobe.Addr) cellprobe.Word {
	t := r.t
	fam := t.set.Fam
	jWords := bitvec.Words(fam.AccurateRows())
	cWords := bitvec.Words(fam.CoarseRows())
	if addr.Len() < jWords+1 {
		return cellprobe.IntWord(0)
	}
	var payload []uint64
	for i := 0; i < addr.Len(); i++ {
		payload = append(payload, addr.Word(i))
	}
	j := bitvec.Vector(payload[:jWords])
	count := payload[jWords]
	if count > uint64(addr.Len()) || addr.Len() != jWords+1+int(count)*(1+cWords) {
		return cellprobe.IntWord(0)
	}
	ball := t.set.Ball[t.Level]
	ball.ensureSketches()
	var members []int
	for i, n := 0, ball.db.Rows(); i < n; i++ {
		if bitvec.DistanceAtMost(j, ball.sk.Row(i), fam.AccurateThreshold(t.Level)) {
			members = append(members, i)
		}
	}
	cut := t.set.sizeCut(len(members))
	pos := jWords + 1
	for q := uint64(1); q <= count; q++ {
		lv := payload[pos]
		wq := bitvec.Vector(payload[pos+1 : pos+1+cWords])
		pos += 1 + cWords
		if int(lv) > fam.L {
			return cellprobe.IntWord(0)
		}
		sketches := t.set.coarseDBSketches(int(lv))
		dSize := 0
		for _, idx := range members {
			if bitvec.DistanceAtMost(wq, sketches.Row(idx), fam.CoarseThreshold(int(lv))) {
				dSize++
			}
		}
		if dSize > cut {
			return cellprobe.IntWord(int(q))
		}
	}
	return cellprobe.IntWord(0)
}

// UseReferenceEvalers rebinds every table of s to a fresh oracle (same
// tag, nominal size, word size and meter) over the reference evalers.
func UseReferenceEvalers(s *Set) {
	swap := func(o **cellprobe.Oracle, ev cellprobe.Evaler) {
		*o = cellprobe.NewOracleEval((*o).Tag(), (*o).NominalLogCells(), (*o).WordBits(), s.Meter, ev)
	}
	for _, b := range s.Ball {
		swap(&b.oracle, refBall{b})
	}
	for _, a := range s.Aux {
		swap(&a.oracle, refAux{a})
	}
	swap(&s.Exact.oracle, refMember{s.Exact})
	swap(&s.Near.oracle, refMember{s.Near})
}
