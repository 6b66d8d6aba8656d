package bitvec

import (
	"fmt"
	"testing"
)

func benchVectors(d int) (Vector, Vector) {
	a, b := New(d), New(d)
	for i := 0; i < d; i += 3 {
		a.Set(i, true)
	}
	for i := 0; i < d; i += 5 {
		b.Set(i, true)
	}
	return a, b
}

func BenchmarkDistance1024(b *testing.B) {
	x, y := benchVectors(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

func BenchmarkDistance65536(b *testing.B) {
	x, y := benchVectors(65536)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Distance(x, y)
	}
}

func BenchmarkDistanceAtMostEarlyExit(b *testing.B) {
	x, y := benchVectors(65536)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DistanceAtMost(x, y, 16) // fails fast: answer ≫ 16
	}
}

func BenchmarkParity(b *testing.B) {
	x, y := benchVectors(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Parity(x, y)
	}
}

func BenchmarkKey(b *testing.B) {
	x, _ := benchVectors(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Key()
	}
}

// BenchmarkFirstWithin times one full scan of a 16 384-row block (no row
// matches, the cold-cell worst case) per specialised width and for the
// generic body (7 words), reporting ns per row.
func BenchmarkFirstWithin(b *testing.B) {
	const rows = 16384
	for _, c := range []struct {
		name  string
		words int
	}{{"w=4", 4}, {"w=5", 5}, {"w=6", 6}, {"w=8", 8}, {"w=generic", 7}} {
		b.Run(c.name, func(b *testing.B) {
			blk, key := scanBlock(rows, c.words, 1)
			thr := c.words * 64 * 2 / 9 // a ball-table cut (≈ 76 of 336 bits); random rows sit near bits/2, none qualifies
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blk.FirstWithin(key, thr) >= 0 {
					b.Fatal("unexpected match")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
		})
	}
}

// BenchmarkFirstWithinEach times one full multi-key scan of a 16 384-row
// block (no row matches) per body, for the two row widths the benchmark
// index produces (6-word sketches, 8-word points) and 1 to 8 keys. It
// rotates over 12 blocks — 9 MB at 6 words, more than the L2 — because a
// batch round scans a different table each time and one resident block
// flatters the result. ns/row is the cost of a pass, ns/keyrow that cost
// per key served.
func BenchmarkFirstWithinEach(b *testing.B) {
	const rows, blocks = 16384, 12
	for _, body := range []string{"portable", "avx512"} {
		for _, c := range []struct {
			name       string
			words, thr int
		}{
			{"w=6", 6, 6 * 64 * 2 / 9}, // a ball-table cut; random rows sit near bits/2
			{"w=8", 8, 1},              // the radius-1 membership cell
		} {
			for _, nk := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/%s/nk=%d", body, c.name, nk), func(b *testing.B) {
					if body == "avx512" && !hasVectorScan() {
						b.Skip("no AVX512F + AVX512_VPOPCNTDQ with OS zmm state on this machine")
					}
					useVectorScan(b, body == "avx512")
					blks := make([]Block, blocks)
					var keys []uint64
					for i := range blks {
						var key []uint64
						blks[i], key = scanBlock(rows, c.words, int64(i+1))
						if i < nk {
							keys = append(keys, key...)
						}
					}
					out := make([]int, nk)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						blks[i%blocks].FirstWithinEach(keys, c.thr, out)
						if out[0] >= 0 {
							b.Fatal("unexpected match")
						}
					}
					perRow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / rows
					b.ReportMetric(perRow, "ns/row")
					b.ReportMetric(perRow/float64(nk), "ns/keyrow")
				})
			}
		}
	}
}
