package table

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/cellprobe"
	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/sketch"
)

// BenchmarkEvalCellCold times the cold-cell path at the whole-path
// benchmark's shape (d = 512, n = 16 384, γ = 2): one BallTable.EvalCell
// per never-seen query, cycling over every level, straight at the evaler
// so no cell is ever served from a memo. A cold eval must not allocate.
func BenchmarkEvalCellCold(b *testing.B) {
	const d, n, dist = 512, 16384, 51
	fam := sketch.NewFamily(sketch.Params{D: d, N: n, Gamma: 2, Seed: 3})
	r := rng.New(4)
	db := make([]bitvec.Vector, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	set := NewSet(fam, db)
	set.Materialize(0)
	addrs := make([]cellprobe.Addr, 64*len(set.Ball))
	for i := range addrs {
		x := hamming.AtDistance(r, db[r.Intn(n)], d, dist)
		addrs[i] = set.Ball[i%len(set.Ball)].Address(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := i % len(addrs)
		sinkWord = set.Ball[a%len(set.Ball)].EvalCell(addrs[a])
	}
}

var sinkWord cellprobe.Word
