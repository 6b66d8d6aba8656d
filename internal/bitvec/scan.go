package bitvec

import (
	"fmt"
	"math/bits"
)

// The first-match scan kernel. A lazily simulated table cell holds "some
// row within distance thr of the address, or EMPTY"; the simulator's
// answer is the lowest such row, which is what a preprocessing pass over
// the database in order would have stored. Every scan in the table layer
// — ball-table cells, the radius-1 membership cell, the C_i member lists
// of Algorithm 2 — is one of the forms below, so there is one loop to make
// fast: the key lives in locals, the block is walked by stride through
// fixed-size array views (no per-row slice header, no per-word bounds
// check), and a row is dropped after the first word pair at which its
// running popcount already exceeds thr. The cut is exact: a row is
// rejected only on a partial sum that the full distance can only exceed.
//
// Bodies are specialised for the row widths real indexes produce — 4 to 8
// words for ⌈24·log₂n⌉-bit sketches, d/64 for membership rows — and chosen
// by RowWords alone; every other width takes the generic body.

// FirstWithin returns the lowest row index i with Distance(key, Row(i))
// ≤ thr, or -1 when no row qualifies. key must hold RowWords words.
func (b *Block) FirstWithin(key []uint64, thr int) int {
	return b.nextWithin(0, key, thr)
}

// AppendWithin appends, in increasing order, the index of every row within
// distance thr of key to dst and returns it.
func (b *Block) AppendWithin(dst []int, key []uint64, thr int) []int {
	for i := b.nextWithin(0, key, thr); i >= 0; i = b.nextWithin(i+1, key, thr) {
		dst = append(dst, i)
	}
	return dst
}

// CountWithin returns the number of rows within distance thr of key.
func (b *Block) CountWithin(key []uint64, thr int) int {
	n := 0
	for i := b.nextWithin(0, key, thr); i >= 0; i = b.nextWithin(i+1, key, thr) {
		n++
	}
	return n
}

// CountWithinRows is CountWithin restricted to the listed rows (the
// D_{i,j} ⊆ C_i size test walks a member list, not the whole block).
func (b *Block) CountWithinRows(rows []int, key []uint64, thr int) int {
	b.checkKey(key)
	n := 0
	for _, i := range rows {
		if DistanceAtMost(key, b.Row(i), thr) {
			n++
		}
	}
	return n
}

func (b *Block) checkKey(key []uint64) {
	if len(key) != b.RowWords {
		panic(fmt.Sprintf("bitvec: scan key has %d words, block rows have %d", len(key), b.RowWords))
	}
}

// nextWithin returns the lowest row index ≥ from within distance thr of
// key, or -1.
func (b *Block) nextWithin(from int, key []uint64, thr int) int {
	b.checkKey(key)
	if thr < 0 || b.RowWords == 0 {
		return -1
	}
	switch b.RowWords {
	case 4:
		return next4(b.Words, (*[4]uint64)(key), from, thr)
	case 5:
		return next5(b.Words, (*[5]uint64)(key), from, thr)
	case 6:
		return next6(b.Words, (*[6]uint64)(key), from, thr)
	case 8:
		return next8(b.Words, (*[8]uint64)(key), from, thr)
	}
	return nextN(b.Words, key, from, thr)
}

func next4(words []uint64, key *[4]uint64, from, thr int) int {
	k0, k1, k2, k3 := key[0], key[1], key[2], key[3]
	for rest := words[from*4:]; len(rest) >= 4; rest = rest[4:] {
		r := (*[4]uint64)(rest)
		n := bits.OnesCount64(r[0]^k0) + bits.OnesCount64(r[1]^k1)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[2]^k2) + bits.OnesCount64(r[3]^k3)
		if n <= thr {
			return (len(words) - len(rest)) / 4
		}
	}
	return -1
}

func next5(words []uint64, key *[5]uint64, from, thr int) int {
	k0, k1, k2, k3, k4 := key[0], key[1], key[2], key[3], key[4]
	for rest := words[from*5:]; len(rest) >= 5; rest = rest[5:] {
		r := (*[5]uint64)(rest)
		n := bits.OnesCount64(r[0]^k0) + bits.OnesCount64(r[1]^k1)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[2]^k2) + bits.OnesCount64(r[3]^k3)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[4] ^ k4)
		if n <= thr {
			return (len(words) - len(rest)) / 5
		}
	}
	return -1
}

func next6(words []uint64, key *[6]uint64, from, thr int) int {
	k0, k1, k2, k3, k4, k5 := key[0], key[1], key[2], key[3], key[4], key[5]
	for rest := words[from*6:]; len(rest) >= 6; rest = rest[6:] {
		r := (*[6]uint64)(rest)
		n := bits.OnesCount64(r[0]^k0) + bits.OnesCount64(r[1]^k1)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[2]^k2) + bits.OnesCount64(r[3]^k3)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[4]^k4) + bits.OnesCount64(r[5]^k5)
		if n <= thr {
			return (len(words) - len(rest)) / 6
		}
	}
	return -1
}

func next8(words []uint64, key *[8]uint64, from, thr int) int {
	k0, k1, k2, k3, k4, k5, k6, k7 := key[0], key[1], key[2], key[3], key[4], key[5], key[6], key[7]
	for rest := words[from*8:]; len(rest) >= 8; rest = rest[8:] {
		r := (*[8]uint64)(rest)
		n := bits.OnesCount64(r[0]^k0) + bits.OnesCount64(r[1]^k1)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[2]^k2) + bits.OnesCount64(r[3]^k3)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[4]^k4) + bits.OnesCount64(r[5]^k5)
		if n > thr {
			continue
		}
		n += bits.OnesCount64(r[6]^k6) + bits.OnesCount64(r[7]^k7)
		if n <= thr {
			return (len(words) - len(rest)) / 8
		}
	}
	return -1
}

// nextN is the generic body: any row width, the same cut after every
// word pair.
func nextN(words, key []uint64, from, thr int) int {
	w := len(key)
rows:
	for rest := words[from*w:]; len(rest) >= w; rest = rest[w:] {
		row := rest[:w]
		n, i := 0, 0
		for ; i+2 <= w; i += 2 {
			n += bits.OnesCount64(row[i]^key[i]) + bits.OnesCount64(row[i+1]^key[i+1])
			if n > thr {
				continue rows
			}
		}
		if i < w {
			n += bits.OnesCount64(row[i] ^ key[i])
		}
		if n <= thr {
			return (len(words) - len(rest)) / w
		}
	}
	return -1
}
