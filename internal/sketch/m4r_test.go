package sketch

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

func TestTranspose64(t *testing.T) {
	r := rng.New(85)
	var a, b [64]uint64
	for i := range a {
		a[i] = r.Uint64()
	}
	b = a
	transpose64(&b)
	for i := 0; i < 64; i++ {
		for k := 0; k < 64; k++ {
			if a[i]>>k&1 != b[k]>>i&1 {
				t.Fatalf("bit (%d,%d) not transposed", i, k)
			}
		}
	}
}

// TestFourRussiansPaysAtServingShapes pins the kernel choice where
// BenchmarkApplyBlock measures it (d = 512, 336 rows: the two kernels
// cross between n = 64 and n = 128): a whole index and a sealed segment
// take the tables; a four-point segment (MemtableCap 4), n = 64 and a
// matrix of one output word at any n keep the row-parity kernel.
func TestFourRussiansPaysAtServingShapes(t *testing.T) {
	for _, c := range []struct {
		n, d, rows int
		want       bool
	}{
		{16384, 512, 336, true},
		{512, 512, 336, true},
		{128, 512, 336, true},
		{64, 512, 336, false},
		{4, 512, 336, false},
		{16384, 512, 8, false},
	} {
		if got := fourRussiansPays(c.n, c.d, c.rows); got != c.want {
			t.Errorf("fourRussiansPays(n=%d, d=%d, rows=%d) = %v, want %v", c.n, c.d, c.rows, got, c.want)
		}
	}
}

// FuzzApplyBlockInto drives ApplyBlockInto and the table path with
// fuzzer-chosen shapes, densities and seeds against the row-parity
// kernel. Points carry bits past d, and with dirty set so do the
// matrix's rows: the row-parity kernel folds whole words, so the tables
// must too.
func FuzzApplyBlockInto(f *testing.F) {
	f.Add(uint16(512), uint16(336), uint16(5), uint8(64), false, uint64(1))
	f.Add(uint16(100), uint16(63), uint16(1), uint8(255), false, uint64(2))
	f.Add(uint16(1000), uint16(64), uint16(17), uint8(4), false, uint64(3))
	f.Add(uint16(100), uint16(70), uint16(9), uint8(76), true, uint64(84))
	f.Fuzz(func(t *testing.T, d, rows, n uint16, density uint8, dirty bool, seed uint64) {
		dd, rr, nn := 1+int(d%1100), 1+int(rows%400), int(n%40)
		p := (1 + float64(density)) / 256
		r := rng.New(seed)
		m := NewBernoulli(r, rr, dd, p)
		if dirty {
			for i := range m.block.Words {
				m.block.Words[i] ^= r.Uint64()
			}
		}
		src := bitvec.NewBlock(nn, dd)
		for i := range src.Words {
			src.Words[i] = r.Uint64()
		}
		checkApplyBlock(t, m, src)
	})
}
