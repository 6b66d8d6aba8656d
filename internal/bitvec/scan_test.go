package bitvec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// scanBlock returns a seeded random block of the given shape and a random
// key of the same width.
func scanBlock(rows, words int, seed int64) (Block, []uint64) {
	r := rand.New(rand.NewSource(seed))
	blk := Block{RowWords: words, Words: make([]uint64, rows*words)}
	for i := range blk.Words {
		blk.Words[i] = r.Uint64()
	}
	key := make([]uint64, words)
	for i := range key {
		key[i] = r.Uint64()
	}
	return blk, key
}

// refWithin is the plain row-by-row loop the kernel replaced: every row
// index within thr of key, in database order, by DistanceAtMost.
func refWithin(b *Block, key []uint64, thr int) []int {
	out := []int{}
	for i := 0; i < b.Rows(); i++ {
		if DistanceAtMost(key, b.Row(i), thr) {
			out = append(out, i)
		}
	}
	return out
}

// checkScan pins all four kernel forms to refWithin on one input.
func checkScan(t *testing.T, b *Block, key []uint64, thr int) {
	t.Helper()
	want := refWithin(b, key, thr)
	first := -1
	if len(want) > 0 {
		first = want[0]
	}
	if got := b.FirstWithin(key, thr); got != first {
		t.Fatalf("w=%d rows=%d thr=%d: FirstWithin = %d, want %d", b.RowWords, b.Rows(), thr, got, first)
	}
	if got := b.AppendWithin([]int{}, key, thr); !reflect.DeepEqual(got, want) {
		t.Fatalf("w=%d rows=%d thr=%d: AppendWithin = %v, want %v", b.RowWords, b.Rows(), thr, got, want)
	}
	if got := b.CountWithin(key, thr); got != len(want) {
		t.Fatalf("w=%d rows=%d thr=%d: CountWithin = %d, want %d", b.RowWords, b.Rows(), thr, got, len(want))
	}
	// The odd rows as a member list: the restricted count must see
	// exactly the odd members of want.
	var odd []int
	wantOdd := 0
	for i := 1; i < b.Rows(); i += 2 {
		odd = append(odd, i)
	}
	for _, i := range want {
		wantOdd += i & 1
	}
	if got := b.CountWithinRows(odd, key, thr); got != wantOdd {
		t.Fatalf("w=%d rows=%d thr=%d: CountWithinRows = %d, want %d", b.RowWords, b.Rows(), thr, got, wantOdd)
	}
}

// flipped returns key with n distinct random bits inverted.
func flipped(r *rand.Rand, key []uint64, n int) []uint64 {
	out := append([]uint64(nil), key...)
	for _, bit := range r.Perm(len(key) * 64)[:n] {
		out[bit>>6] ^= 1 << uint(bit&63)
	}
	return out
}

// TestScanKernelDifferential drives every row width from 1 to 17 words
// (each specialised body and the generic one, odd and even) through the
// thresholds and row placements that distinguish a first-match scan from
// an any-match one.
func TestScanKernelDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for w := 1; w <= 17; w++ {
		bits := 64 * w
		key := make([]uint64, w)
		for i := range key {
			key[i] = r.Uint64()
		}
		for _, thr := range []int{0, bits / 5, bits, bits + 7} {
			// Empty block.
			empty := Block{RowWords: w}
			checkScan(t, &empty, key, thr)

			// Rows at distances straddling thr, so the cut is exercised at
			// every prefix: far (≈ bits/2), just over, exactly at, just under.
			const rows = 41
			blk := Block{RowWords: w, Words: make([]uint64, rows*w)}
			for i := 0; i < rows; i++ {
				dist := bits / 2
				switch i % 4 {
				case 1:
					dist = min(thr+1, bits)
				case 2:
					dist = min(thr, bits)
				case 3:
					dist = max(min(thr, bits)-1, 0)
				}
				blk.SetRow(i, flipped(r, key, dist))
			}
			checkScan(t, &blk, key, thr)

			// No match anywhere except the last row.
			for i := 0; i < rows-1; i++ {
				blk.SetRow(i, flipped(r, key, min(thr+1+i%3, bits)))
			}
			blk.SetRow(rows-1, flipped(r, key, min(thr, bits)))
			checkScan(t, &blk, key, thr)
			if thr < bits {
				if got := blk.FirstWithin(key, thr); got != rows-1 {
					t.Fatalf("w=%d thr=%d: match in last row found at %d", w, thr, got)
				}
			}

			// Duplicates: the same matching row at 9, 10 and 30 — the
			// lowest index wins.
			dup := flipped(r, key, min(thr, bits))
			for _, i := range []int{9, 10, 30} {
				blk.SetRow(i, dup)
			}
			checkScan(t, &blk, key, thr)
			if thr < bits {
				if got := blk.FirstWithin(key, thr); got != 9 {
					t.Fatalf("w=%d thr=%d: duplicates resolved to row %d, want 9", w, thr, got)
				}
			}
		}
		// A negative threshold admits nothing.
		blk := Block{RowWords: w, Words: append([]uint64(nil), key...)}
		if got := blk.FirstWithin(key, -1); got != -1 {
			t.Fatalf("w=%d: thr=-1 matched row %d", w, got)
		}
	}
}

func TestScanKernelKeyWidthMismatchPanics(t *testing.T) {
	blk, _ := scanBlock(4, 6, 1)
	for _, f := range []func(){
		func() { blk.FirstWithin(make([]uint64, 5), 10) },
		func() { blk.CountWithinRows([]int{0}, make([]uint64, 7), 10) },
		func() { blk.FirstWithinEach(make([]uint64, 2*5), 10, make([]int, 2)) },
		func() { blk.FirstWithinEach(make([]uint64, 2*6), 10, make([]int, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("scan with a key of the wrong width did not panic")
				}
			}()
			f()
		}()
	}
}

// FuzzFirstWithin pins the kernel to the plain loop on arbitrary blocks:
// byte 0 picks the row width (1–17 words), bytes 1–2 the threshold, the
// next width·8 bytes the key, the rest the rows (a ragged tail is dropped).
func FuzzFirstWithin(f *testing.F) {
	for _, w := range []int{1, 4, 5, 6, 7, 8, 17} {
		blk, key := scanBlock(9, w, int64(w))
		copy(blk.Words[3*w:], key) // a planted exact match
		seed := []byte{byte(w - 1), byte(w * 13), 0}
		for _, word := range append(append([]uint64(nil), key...), blk.Words...) {
			for s := 0; s < 64; s += 8 {
				seed = append(seed, byte(word>>uint(s)))
			}
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		w := 1 + int(data[0])%17
		thr := int(data[1]) | int(data[2])<<8 // 0 … 65535 ≥ 17·64 bits
		words := make([]uint64, (len(data)-3)/8)
		for i := range words {
			for s := 0; s < 8; s++ {
				words[i] |= uint64(data[3+i*8+s]) << uint(8*s)
			}
		}
		if len(words) < w {
			return
		}
		key, body := words[:w], words[w:]
		blk := Block{RowWords: w, Words: body[:len(body)/w*w]}
		checkScan(t, &blk, key, thr)
	})
}

func ExampleBlock_FirstWithin() {
	blk := BlockOf([]Vector{{0xff}, {0x0f}, {0x0f}})
	fmt.Println(blk.FirstWithin([]uint64{0x1f}, 1), blk.FirstWithin([]uint64{0x1f}, 0))
	// Output: 1 -1
}
