package bitvec

import (
	"math/rand"
	"testing"
)

// checkEach pins FirstWithinEach to FirstWithin per key on one input.
func checkEach(t *testing.T, b *Block, keys []uint64, thr int) {
	t.Helper()
	w := b.RowWords
	nk := len(keys) / w
	out := make([]int, nk)
	for i := range out {
		out[i] = -7 // every slot must be written
	}
	b.FirstWithinEach(keys, thr, out)
	for q := range out {
		if want := b.FirstWithin(keys[q*w:(q+1)*w], thr); out[q] != want {
			t.Fatalf("w=%d rows=%d thr=%d nk=%d: key %d resolved to row %d, FirstWithin says %d",
				w, b.Rows(), thr, nk, q, out[q], want)
		}
	}
}

// TestScanKernelLogsBody makes the body under test visible in the log of
// a runner, so a machine without AVX-512 does not pass silently on the
// portable body alone.
func TestScanKernelLogsBody(t *testing.T) {
	t.Logf("bitvec scan kernel on this machine: %s", ScanKernel())
}

// TestFirstWithinEachDifferential drives each body through every row
// width from 1 to 17 words, thresholds from 0 to past the row length, and
// 1 to 20 keys (more than two passes of lanes) among which are duplicates
// and keys whose first match is row 0, the last row, or no row.
func TestFirstWithinEachDifferential(t *testing.T) {
	eachBody(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(23))
		for w := 1; w <= 17; w++ {
			bits := 64 * w
			for _, thr := range []int{0, bits / 5, bits, bits + 7, -1} {
				at := max(min(thr, bits), 0)
				const rows = 53
				blk := Block{RowWords: w, Words: make([]uint64, rows*w)}
				for i := range blk.Words {
					blk.Words[i] = r.Uint64()
				}
				for nk := 1; nk <= 20; nk++ {
					keys := make([]uint64, 0, nk*w)
					for q := 0; q < nk; q++ {
						var key []uint64
						switch q % 6 {
						case 0: // matches row 0 exactly at the threshold
							key = flipped(r, blk.Row(0), at)
						case 1: // matches only the last row
							key = flipped(r, blk.Row(rows-1), at)
						case 2: // matches nothing (random rows sit near bits/2)
							key = flipped(r, blk.Row(rows/2), min(at+1+bits/3, bits))
						case 3: // one over the threshold of a middle row
							key = flipped(r, blk.Row(rows/3), min(at+1, bits))
						case 4: // a duplicate of the previous key
							key = keys[len(keys)-w:]
						default: // one under the threshold of a middle row
							key = flipped(r, blk.Row(2*rows/3), max(at-1, 0))
						}
						keys = append(keys, key...)
					}
					checkEach(t, &blk, keys, thr)
					empty := Block{RowWords: w}
					checkEach(t, &empty, keys, thr)
					short := Block{RowWords: w, Words: blk.Words[:w-1]} // shorter than one row
					checkEach(t, &short, keys, thr)
				}
			}
		}
		// The same matching row planted twice: every lane takes the lower.
		blk, key := scanBlock(40, 6, 5)
		blk.SetRow(11, key)
		blk.SetRow(29, key)
		out := make([]int, 3)
		blk.FirstWithinEach(append(append(append([]uint64(nil), key...), key...), key...), 0, out)
		for q, got := range out {
			if got != 11 {
				t.Fatalf("key %d: duplicate rows resolved to %d, want 11", q, got)
			}
		}
	})
}

// FuzzFirstWithinEach pins each body to FirstWithin on arbitrary blocks:
// byte 0 picks the row width (1–17 words), bytes 1–2 the threshold, byte
// 3 the key count (1–20), then the keys, then the rows (a ragged tail is
// dropped).
func FuzzFirstWithinEach(f *testing.F) {
	for _, w := range []int{1, 4, 5, 6, 7, 8, 17} {
		blk, key := scanBlock(9, w, int64(w))
		copy(blk.Words[3*w:], key) // a planted exact match for key 0
		seed := []byte{byte(w - 1), byte(w * 13), 0, byte(w)}
		words := append([]uint64(nil), key...)
		for q := 0; q < w; q++ { // key count w+1: the rest are rows of the block
			words = append(words, blk.Row(q%9)...)
		}
		for _, word := range append(words, blk.Words...) {
			for s := 0; s < 64; s += 8 {
				seed = append(seed, byte(word>>uint(s)))
			}
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		w := 1 + int(data[0])%17
		thr := int(data[1]) | int(data[2])<<8 // 0 … 65535 ≥ 17·64 bits
		nk := 1 + int(data[3])%20
		words := make([]uint64, (len(data)-4)/8)
		for i := range words {
			for s := 0; s < 8; s++ {
				words[i] |= uint64(data[4+i*8+s]) << uint(8*s)
			}
		}
		if len(words) < nk*w {
			return
		}
		keys, body := words[:nk*w], words[nk*w:]
		blk := Block{RowWords: w, Words: body[:len(body)/w*w]}
		eachBody(t, func(t *testing.T) { checkEach(t, &blk, keys, thr) })
	})
}
