package sketch

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// oracleApply is the pre-kernel reference: per-row Parity, per-bit Set,
// explicit zeroing. The word-accumulating ApplyInto must match it exactly.
func oracleApply(m *Matrix, x bitvec.Vector) bitvec.Vector {
	dst := bitvec.New(m.NumRows)
	for i := 0; i < m.NumRows; i++ {
		if bitvec.Parity(m.Row(i), x) == 1 {
			dst.Set(i, true)
		}
	}
	return dst
}

func TestApplyIntoMatchesOracle(t *testing.T) {
	r := rng.New(77)
	for _, shape := range []struct{ rows, d int }{
		{1, 1}, {7, 64}, {63, 100}, {64, 128}, {65, 129}, {96, 1024}, {192, 257}, {300, 4096},
	} {
		m := NewBernoulli(r, shape.rows, shape.d, 0.05)
		for trial := 0; trial < 4; trial++ {
			x := hamming.Random(r, shape.d)
			want := oracleApply(m, x)
			got := m.Apply(x)
			if !bitvec.Equal(got, want) {
				t.Fatalf("%dx%d trial %d: ApplyInto diverges from oracle", shape.rows, shape.d, trial)
			}
		}
	}
}

// TestApplyIntoFoldsZeroing checks the documented contract that dst is
// fully overwritten: stale garbage in dst must not survive.
func TestApplyIntoFoldsZeroing(t *testing.T) {
	r := rng.New(78)
	m := NewBernoulli(r, 100, 512, 0.1)
	x := hamming.Random(r, 512)
	dst := bitvec.New(m.NumRows)
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	m.ApplyInto(dst, x)
	if !bitvec.Equal(dst, oracleApply(m, x)) {
		t.Fatal("stale dst contents leaked through ApplyInto")
	}
	if got := dst.TruncateToDim(m.NumRows); !bitvec.Equal(got, dst) {
		t.Fatal("ApplyInto set bits beyond NumRows")
	}
}

// TestApplyBatchIntoQuickCheck is the satellite quick-check: for random
// shapes and batch sizes (covering the blocked body, the scalar tail, and
// the empty batch), ApplyBatchInto must equal B independent ApplyInto
// calls.
func TestApplyBatchIntoQuickCheck(t *testing.T) {
	r := rng.New(79)
	for trial := 0; trial < 60; trial++ {
		rows := 1 + int(r.Uint64()%200)
		d := 1 + int(r.Uint64()%2048)
		b := int(r.Uint64() % 11) // 0..10: tails of every length mod batchWidth
		m := NewBernoulli(r, rows, d, 0.07)
		xs := make([]bitvec.Vector, b)
		dsts := make([]bitvec.Vector, b)
		want := make([]bitvec.Vector, b)
		for q := 0; q < b; q++ {
			xs[q] = hamming.Random(r, d)
			dsts[q] = bitvec.New(rows)
			for i := range dsts[q] {
				dsts[q][i] = ^uint64(0) // stale garbage must be overwritten
			}
			want[q] = m.ApplyInto(bitvec.New(rows), xs[q])
		}
		m.ApplyBatchInto(dsts, xs)
		for q := 0; q < b; q++ {
			if !bitvec.Equal(dsts[q], want[q]) {
				t.Fatalf("trial %d (%dx%d, batch %d): query %d diverges from independent ApplyInto",
					trial, rows, d, b, q)
			}
		}
	}
}

func TestApplyBatchIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on len(dsts) != len(xs)")
		}
	}()
	r := rng.New(80)
	m := NewBernoulli(r, 8, 64, 0.1)
	m.ApplyBatchInto(make([]bitvec.Vector, 2), make([]bitvec.Vector, 3))
}

// checkApplyBlock runs ApplyBlockInto (its own kernel choice) and the
// forced Four-Russians table path on src over garbage-filled destinations
// and compares every row with the row-parity kernel (ApplyBatchInto:
// applyBlock4 over groups of four, ApplyInto for the tail).
func checkApplyBlock(t *testing.T, m *Matrix, src bitvec.Block) {
	t.Helper()
	n := src.Rows()
	want := bitvec.NewBlock(n, m.NumRows)
	dsts, xs := make([]bitvec.Vector, n), make([]bitvec.Vector, n)
	for i := range xs {
		dsts[i], xs[i] = want.Row(i), src.Row(i)
	}
	m.ApplyBatchInto(dsts, xs)
	for _, k := range []struct {
		name string
		run  func(dst, src bitvec.Block)
	}{
		{"ApplyBlockInto", m.ApplyBlockInto},
		{"applyBlockTables", m.applyBlockTables},
	} {
		dst := bitvec.NewBlock(n, m.NumRows)
		for i := range dst.Words {
			dst.Words[i] = ^uint64(0) // stale contents must be overwritten
		}
		k.run(dst, src)
		for i := 0; i < n; i++ {
			if !bitvec.Equal(dst.Row(i), want.Row(i)) {
				t.Fatalf("%s %dx%d n=%d: row %d = %v, row parity gives %v",
					k.name, m.NumRows, m.Dim, n, i, dst.Row(i), want.Row(i))
			}
		}
	}
}

// TestApplyBlockIntoQuickCheck pins the build-path block form, through
// ApplyBlockInto and through the forced table path, against the
// row-parity kernel: first random shapes with row counts in every
// residue class of the block width, then every corner of d ∈ {64, 100,
// 512, 1000} × rows ∈ {1, 63, 64, 336} × n ∈ {1, 3, 4, 512} (a partial
// last word of z, one row, rows either side of a word boundary, the
// serving shape, one point up to a sealed segment) at a dense level
// (p = 1/4) and a sparse one (p = 1/64, mostly empty columns).
func TestApplyBlockIntoQuickCheck(t *testing.T) {
	r := rng.New(81)
	randomBlock := func(n, d int) bitvec.Block {
		src := bitvec.NewBlock(n, d)
		for i := 0; i < n; i++ {
			copy(src.Row(i), hamming.Random(r, d))
		}
		return src
	}
	for trial := 0; trial < 40; trial++ {
		rows := 1 + int(r.Uint64()%150)
		d := 1 + int(r.Uint64()%1024)
		n := int(r.Uint64() % 23) // 0..22 database rows
		m := NewBernoulli(r, rows, d, 0.08)
		checkApplyBlock(t, m, randomBlock(n, d))
	}
	for _, d := range []int{64, 100, 512, 1000} {
		for _, rows := range []int{1, 63, 64, 336} {
			for _, n := range []int{1, 3, 4, 512} {
				for _, p := range []float64{0.25, 1.0 / 64} {
					m := NewBernoulli(r, rows, d, p)
					checkApplyBlock(t, m, randomBlock(n, d))
				}
			}
		}
	}
}

func TestApplyBlockIntoShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dst.Rows() != src.Rows()")
		}
	}()
	r := rng.New(82)
	m := NewBernoulli(r, 8, 64, 0.1)
	m.ApplyBlockInto(bitvec.NewBlock(2, 8), bitvec.NewBlock(3, 64))
}
