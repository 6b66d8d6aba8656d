package sketch

import (
	"sync"

	"repro/internal/bitvec"
)

// The build-path kernel: the method of Four Russians for M·z over GF(2)
// (Albrecht, Bard & Hart, "Algorithm 898: Efficient multiplication of
// dense matrices over GF(2)", ACM TOMS 2010 — the M4RI library).
//
// M·z is the XOR of the columns of M that z selects. Split z into bytes;
// for byte group g let T_g[b] be the XOR of columns 8g…8g+7 selected by
// b. Then M·z = XOR_g T_g[z_g]: per byte of z, one lookup for each of
// the Words(rows) output words, instead of one row-AND plus parity per
// row of M. The tables cost 256 entries per group to build, so they pay
// off only once a block has enough points to share them
// (fourRussiansPays).

// m4rChunkWords is how many words of z (8 byte groups each) one pass of
// tables covers: at 336 rows, 2 words = 16 groups = 192 KiB of tables,
// which stays cache-resident while every point of the block is folded
// through them. Wider inputs take several passes over the block.
const m4rChunkWords = 2

// m4rScratch holds one pass's column words and lookup tables.
type m4rScratch struct {
	blk  [64]uint64 // one 64×64 bit block under transposition
	tabs []uint64
}

var m4rPool = sync.Pool{New: func() any { return new(m4rScratch) }}

// fourRussiansPays reports whether sketching n points through byte tables
// is cheaper than the row-parity kernel, by counting word operations.
// Row parity spends rows·(w+1) per point (w ANDs plus a popcount per
// row); the tables spend 256·r per byte group once (the build) and r per
// byte group per point (the lookup), where w = Words(d), r =
// Words(rows) and there are 8w byte groups. The table side is weighted
// 2×, fitted to measured crossovers (BenchmarkApplyBlock, and a sweep of
// both kernels at n = 16…256 on a two-thread Xeon). At d = 512 and 336
// rows the kernels cross between n = 64 (tables 1.2× slower) and 128
// (1.4× faster); the count switches at n ≈ 87. Over d = 64…1 000 and
// 64…336 rows it switches at most 1.8× past the measured crossover,
// where row parity is at most 1.5× slower; at 8 rows (one output word)
// it never switches, and the tables measured slower up to n = 256.
// Blocks below the switch are real: a mutable tier seals MemtableCap
// points at a time (4 in the chaos suite, 32 in the benchmark's quick
// churn run), and at n = 8 the tables cost 9× the row-parity kernel.
func fourRussiansPays(n, d, rows int) bool {
	w, r := bitvec.Words(d), bitvec.Words(rows)
	parity := n * rows * (w + 1)
	tables := 2 * 8 * w * r * (256 + n)
	return tables < parity
}

// A byte table is 256 words: entry b of table (j, g) is word j of the
// XOR of the columns of byte group g that b selects. Tables are laid out
// word-major — all groups of output word j, then j+1 — so one output
// word is a chain of loads XOR'd in a register.
type byteTable = [256]uint64

// applyBlockTables is ApplyBlockInto through Four-Russians byte tables:
// dst.Row(i) = M·src.Row(i) for every row, bit-identical to the
// row-parity kernel (every word of M's rows enters both, so even bits
// past Dim agree). dst rows are fully overwritten.
func (m *Matrix) applyBlockTables(dst, src bitvec.Block) {
	w, r := m.block.RowWords, dst.RowWords
	sc := m4rPool.Get().(*m4rScratch)
	defer m4rPool.Put(sc)
	if need := m4rChunkWords * 8 * 256 * r; cap(sc.tabs) < need {
		sc.tabs = make([]uint64, need)
	}
	for w0 := 0; w0 < w; w0 += m4rChunkWords {
		w1 := min(w0+m4rChunkWords, w)
		tabs := sc.tabs[:(w1-w0)*8*256*r]
		m.byteTables(tabs, w0, w1, r, &sc.blk)
		foldTables(dst, src, tabs, w0, w1, r)
	}
}

// byteTables fills tabs with the tables of z words w0…w1−1: table
// (j, g) sits at tabs[(j·G + g)·256 :], G = 8·(w1−w0). Columns are read
// through a blocked 64×64 transpose of M's rows; a row block past
// NumRows contributes zero words.
func (m *Matrix) byteTables(tabs []uint64, w0, w1, r int, blk *[64]uint64) {
	w, groups := m.block.RowWords, 8*(w1-w0)
	rows := m.block.Words
	for wi := w0; wi < w1; wi++ {
		for j := 0; j < r; j++ {
			lo := j * 64
			hi := max(lo, min(lo+64, m.NumRows))
			for i := lo; i < hi; i++ {
				blk[i-lo] = rows[i*w+wi]
			}
			clear(blk[hi-lo:])
			transpose64(blk)
			// blk[k] is word j of column 64wi+k: the single-column entry
			// 1<<(k%8) of group k/8, from which the rest of the table is
			// doubled up: T[2^c + b] = T[2^c] ^ T[b] for b < 2^c.
			for g := 0; g < 8; g++ {
				base := (j*groups + (wi-w0)*8 + g) * 256
				t := (*byteTable)(tabs[base : base+256])
				t[0] = 0
				for c := 0; c < 8; c++ {
					top, col := 1<<c, blk[8*g+c]
					for b := 0; b < top; b++ {
						t[top+b] = t[b] ^ col
					}
				}
			}
		}
	}
}

// foldTables XORs into every point's dst row the table entries its
// bytes 8w0…8w1−1 select — assigning on the first pass (w0 = 0), so
// stale dst contents never survive.
func foldTables(dst, src bitvec.Block, tabs []uint64, w0, w1, r int) {
	sw, groups := src.RowWords, 8*(w1-w0)
	for i, n := 0, src.Rows(); i < n; i++ {
		z := src.Words[i*sw+w0 : i*sw+w1]
		out := dst.Words[i*r : (i+1)*r]
		for j := range out {
			var acc uint64
			if w0 > 0 {
				acc = out[j]
			}
			jt := tabs[j*groups*256 : (j+1)*groups*256]
			for zi, x := range z {
				t := (*[8 * 256]uint64)(jt[zi*8*256 : (zi+1)*8*256])
				acc ^= t[uint8(x)] ^ t[256+int(uint8(x>>8))] ^ t[512+int(uint8(x>>16))] ^ t[768+int(uint8(x>>24))] ^
					t[1024+int(uint8(x>>32))] ^ t[1280+int(uint8(x>>40))] ^ t[1536+int(uint8(x>>48))] ^ t[1792+int(uint8(x>>56))]
			}
			out[j] = acc
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place (bit k of word i
// becomes bit i of word k) by swapping off-diagonal blocks of side 32,
// 16, …, 1.
func transpose64(a *[64]uint64) {
	masks := [6]uint64{
		0x00000000FFFFFFFF, 0x0000FFFF0000FFFF, 0x00FF00FF00FF00FF,
		0x0F0F0F0F0F0F0F0F, 0x3333333333333333, 0x5555555555555555,
	}
	for s, j := 0, 32; j != 0; s, j = s+1, j>>1 {
		m := masks[s]
		for i := 0; i < 64; i = (i + j + 1) &^ j {
			t := (a[i]>>j ^ a[i+j]) & m
			a[i] ^= t << j
			a[i+j] ^= t
		}
	}
}
