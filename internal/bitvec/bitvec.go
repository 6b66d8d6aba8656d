// Package bitvec provides packed bit vectors over {0,1}^d with the
// operations the ANNS schemes need on their hot path: Hamming distance via
// XOR+popcount, single-bit mutation, equality, and hashing.
//
// A Vector is a slice of 64-bit words. Bits beyond the dimension are kept
// zero by every exported operation; this invariant is what makes Equal and
// Hash well defined.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

// Vector is a packed bit vector. The dimension is carried by the caller;
// all vectors participating in one operation must share it.
type Vector []uint64

// Words returns the number of 64-bit words needed for d bits.
func Words(d int) int {
	if d < 0 {
		panic("bitvec: negative dimension")
	}
	return (d + 63) / 64
}

// New returns an all-zero vector of dimension d.
func New(d int) Vector {
	return make(Vector, Words(d))
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	w := make(Vector, len(v))
	copy(w, v)
	return w
}

// Get reports bit i.
func (v Vector) Get(i int) bool {
	return v[i>>6]&(1<<uint(i&63)) != 0
}

// Set sets bit i to b.
func (v Vector) Set(i int, b bool) {
	if b {
		v[i>>6] |= 1 << uint(i&63)
	} else {
		v[i>>6] &^= 1 << uint(i&63)
	}
}

// Flip inverts bit i.
func (v Vector) Flip(i int) {
	v[i>>6] ^= 1 << uint(i&63)
}

// PopCount returns the number of set bits.
func (v Vector) PopCount() int {
	n := 0
	for _, w := range v {
		n += bits.OnesCount64(w)
	}
	return n
}

// Distance returns the Hamming distance between v and u.
// The two vectors must have the same length.
//
// The loop is unrolled 4 words at a time with independent accumulators so
// the popcounts pipeline (and the compiler can keep the bounds checks out
// of the inner loop); vectors under 4 words take the scalar tail only.
func Distance(v, u Vector) int {
	if len(v) != len(u) {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", len(v), len(u)))
	}
	var n0, n1, n2, n3 int
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a := v[i : i+4 : i+4]
		b := u[i : i+4 : i+4]
		n0 += bits.OnesCount64(a[0] ^ b[0])
		n1 += bits.OnesCount64(a[1] ^ b[1])
		n2 += bits.OnesCount64(a[2] ^ b[2])
		n3 += bits.OnesCount64(a[3] ^ b[3])
	}
	n := n0 + n1 + n2 + n3
	for ; i < len(v); i++ {
		n += bits.OnesCount64(v[i] ^ u[i])
	}
	return n
}

// DistanceAtMost reports whether Distance(v, u) <= t, short-circuiting as
// soon as the running count exceeds t. It is the hot-path form used by
// lazy table-cell evaluation. The threshold check runs once per 4-word
// group, not per word, keeping the common early-exit while letting the
// popcounts pipeline.
func DistanceAtMost(v, u Vector, t int) bool {
	n := 0
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a := v[i : i+4 : i+4]
		b := u[i : i+4 : i+4]
		n += bits.OnesCount64(a[0]^b[0]) + bits.OnesCount64(a[1]^b[1]) +
			bits.OnesCount64(a[2]^b[2]) + bits.OnesCount64(a[3]^b[3])
		if n > t {
			return false
		}
	}
	for ; i < len(v); i++ {
		n += bits.OnesCount64(v[i] ^ u[i])
		if n > t {
			return false
		}
	}
	return true
}

// Xor sets v to v XOR u in place and returns v.
func (v Vector) Xor(u Vector) Vector {
	for i := range v {
		v[i] ^= u[i]
	}
	return v
}

// AndPopCount returns PopCount(v AND u) without allocating.
// It is the inner product kernel for sketch application, unrolled the same
// way as Distance.
func AndPopCount(v, u Vector) int {
	var n0, n1, n2, n3 int
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a := v[i : i+4 : i+4]
		b := u[i : i+4 : i+4]
		n0 += bits.OnesCount64(a[0] & b[0])
		n1 += bits.OnesCount64(a[1] & b[1])
		n2 += bits.OnesCount64(a[2] & b[2])
		n3 += bits.OnesCount64(a[3] & b[3])
	}
	n := n0 + n1 + n2 + n3
	for ; i < len(v); i++ {
		n += bits.OnesCount64(v[i] & u[i])
	}
	return n
}

// Parity returns the GF(2) inner product <v, u> = popcount(v AND u) mod 2.
// Parity of a sum of popcounts equals the popcount of the XOR-fold, so one
// OnesCount64 at the end replaces one per word.
func Parity(v, u Vector) int {
	var f0, f1, f2, f3 uint64
	i := 0
	for ; i+4 <= len(v); i += 4 {
		a := v[i : i+4 : i+4]
		b := u[i : i+4 : i+4]
		f0 ^= a[0] & b[0]
		f1 ^= a[1] & b[1]
		f2 ^= a[2] & b[2]
		f3 ^= a[3] & b[3]
	}
	f := f0 ^ f1 ^ f2 ^ f3
	for ; i < len(v); i++ {
		f ^= v[i] & u[i]
	}
	return bits.OnesCount64(f) & 1
}

// Equal reports whether v and u are identical bit vectors.
func Equal(v, u Vector) bool {
	if len(v) != len(u) {
		return false
	}
	for i := range v {
		if v[i] != u[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether every bit is 0.
func (v Vector) IsZero() bool {
	for _, w := range v {
		if w != 0 {
			return false
		}
	}
	return true
}

// Key returns the vector contents as a string usable as a map key.
// The encoding is the little-endian byte image of the words.
func (v Vector) Key() string {
	var sb strings.Builder
	sb.Grow(len(v) * 8)
	for _, w := range v {
		for s := 0; s < 64; s += 8 {
			sb.WriteByte(byte(w >> uint(s)))
		}
	}
	return sb.String()
}

// FromKey reconstructs a vector from the string produced by Key. nbits is
// the dimension the vector was created with; the key must contain exactly
// Words(nbits)*8 bytes.
func FromKey(key string, nbits int) (Vector, error) {
	want := Words(nbits) * 8
	if len(key) != want {
		return nil, fmt.Errorf("bitvec: key length %d, want %d for %d bits", len(key), want, nbits)
	}
	v := New(nbits)
	for i := range v {
		var w uint64
		for s := 0; s < 8; s++ {
			w |= uint64(key[i*8+s]) << uint(8*s)
		}
		v[i] = w
	}
	return v, nil
}

// TruncateToDim zeroes any bits at positions >= d. Operations that write
// whole words (e.g. filling from a random source) must call this to
// restore the trailing-zero invariant.
func (v Vector) TruncateToDim(d int) Vector {
	if d&63 != 0 && len(v) > 0 {
		v[len(v)-1] &= (1 << uint(d&63)) - 1
	}
	return v
}

// String renders the first min(d, 64*len(v)) bits as '0'/'1' with the
// lowest index first. Intended for tests and debugging of small vectors.
func (v Vector) String() string {
	var sb strings.Builder
	for i := 0; i < len(v)*64; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// FromString parses a '0'/'1' string produced by String (or hand written in
// tests), lowest index first.
func FromString(s string) (Vector, error) {
	v := New(len(s))
	for i, c := range s {
		switch c {
		case '0':
		case '1':
			v.Set(i, true)
		default:
			return nil, fmt.Errorf("bitvec: invalid character %q at %d", c, i)
		}
	}
	return v, nil
}
