package bitvec

import (
	"slices"
	"sync"
)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func firstEachAVX512(words *uint64, rows, w int, tkeys *uint64, thr, live int, out *int)

//go:noescape
func firstEach6AVX512(words *uint64, rows int, tkeys *uint64, thr, live int, out *int)

// hasVectorScan reports whether the assembly body can run: the CPU has
// AVX512F and AVX512_VPOPCNTDQ, and the OS saves opmask and zmm state.
func hasVectorScan() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	if c1&(1<<27) == 0 { // OSXSAVE
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 { // SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM
		return false
	}
	_, b7, c7, _ := cpuid(7, 0)
	return b7&(1<<16) != 0 && c7&(1<<14) != 0 // AVX512F, AVX512_VPOPCNTDQ
}

// tkeysPool holds the transposed-key scratch of a vector pass
// (laneKeys·RowWords words), so a scan allocates nothing.
var tkeysPool = sync.Pool{New: func() any { return new([]uint64) }}

// firstWithinEachVector runs the assembly body in passes of up to
// laneKeys keys. thr ≥ 0 and the block has at least one row.
func (b *Block) firstWithinEachVector(keys []uint64, thr int, out []int) {
	w, rows := b.RowWords, b.Rows()
	tp := tkeysPool.Get().(*[]uint64)
	t := slices.Grow((*tp)[:0], laneKeys*w)[:laneKeys*w]
	*tp = t
	for base := 0; base < len(out); base += laneKeys {
		nk := min(laneKeys, len(out)-base)
		for q := 0; q < nk; q++ {
			out[base+q] = -1
			for j, kw := range keys[(base+q)*w : (base+q+1)*w] {
				t[j*laneKeys+q] = kw
			}
		}
		// Lanes past nk hold stale words; they are never live, so nothing
		// is read from or stored for them.
		live := 1<<nk - 1
		if w == 6 {
			firstEach6AVX512(&b.Words[0], rows, &t[0], thr, live, &out[base])
		} else {
			firstEachAVX512(&b.Words[0], rows, w, &t[0], thr, live, &out[base])
		}
	}
	tkeysPool.Put(tp)
}
