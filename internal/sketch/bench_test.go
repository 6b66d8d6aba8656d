package sketch

import (
	"fmt"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

func BenchmarkApply1024x96(b *testing.B) {
	r := rng.New(1)
	m := NewBernoulli(r, 96, 1024, 0.05)
	x := hamming.Random(r, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Apply(x)
	}
}

func BenchmarkApply16384x192(b *testing.B) {
	r := rng.New(2)
	m := NewBernoulli(r, 192, 16384, 0.01)
	x := hamming.Random(r, 16384)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Apply(x)
	}
}

// BenchmarkApplyBatch8x4096x256 measures the blocked batch kernel against
// a matrix too large for L1 (256 rows × 4096 bits = 128 KiB), the regime
// the row-load amortization targets. Compare per-query cost against
// BenchmarkApplySingle8x4096x256.
func BenchmarkApplyBatch8x4096x256(b *testing.B) {
	r := rng.New(9)
	m := NewBernoulli(r, 256, 4096, 0.01)
	const batch = 8
	xs := make([]bitvec.Vector, batch)
	dsts := make([]bitvec.Vector, batch)
	for q := range xs {
		xs[q] = hamming.Random(r, 4096)
		dsts[q] = bitvec.New(m.NumRows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ApplyBatchInto(dsts, xs)
	}
}

func BenchmarkApplySingle8x4096x256(b *testing.B) {
	r := rng.New(9)
	m := NewBernoulli(r, 256, 4096, 0.01)
	const batch = 8
	xs := make([]bitvec.Vector, batch)
	dsts := make([]bitvec.Vector, batch)
	for q := range xs {
		xs[q] = hamming.Random(r, 4096)
		dsts[q] = bitvec.New(m.NumRows)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for q := range xs {
			m.ApplyInto(dsts[q], xs[q])
		}
	}
}

func BenchmarkNewBernoulliSparse(b *testing.B) {
	r := rng.New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewBernoulli(r, 96, 16384, 1.0/4096)
	}
}

func BenchmarkNewFamily(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewFamily(Params{D: 1024, N: 256, Gamma: 2, S: 1.5, Seed: uint64(i)})
	}
}

// BenchmarkApplyBlock sketches a database block at the serving shape
// (d = 512, 336 rows: c₁ = 24 at n = 16 384) as an eager build does once
// per level, at n = 512 (a segment the benchmark's churn workload seals),
// and at n = 128…8, around where the two kernels cross (small
// MemtableCap seals). "into" is ApplyBlockInto's own choice; "tables"
// and "parity" force each kernel over the same block.
func BenchmarkApplyBlock(b *testing.B) {
	const d, rows = 512, 336
	for _, n := range []int{16384, 512, 128, 64, 32, 8} {
		r := rng.New(uint64(n))
		m := NewBernoulli(r, rows, d, 0.25)
		src := bitvec.NewBlock(n, d)
		for i := 0; i < n; i++ {
			copy(src.Row(i), hamming.Random(r, d))
		}
		dst := bitvec.NewBlock(n, rows)
		for _, k := range []struct {
			name string
			run  func(dst, src bitvec.Block)
		}{
			{"into", m.ApplyBlockInto},
			{"tables", m.applyBlockTables},
			{"parity", m.applyBlockParity},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, k.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run(dst, src)
				}
			})
		}
	}
}
