package bitvec

import "fmt"

// Block is a flat, pointer-free matrix of packed bit vectors: n rows of
// RowWords words each, stored in one contiguous []uint64 backing array.
// It is the storage substrate of the index components (database points,
// per-level database sketches, sketch-matrix rows): no per-row headers,
// no nested slices, so a Block can be written to or read from a snapshot
// wholesale and shared between levels as subslices of one allocation.
type Block struct {
	RowWords int      // words per row
	Words    []uint64 // len = Rows()*RowWords, row-major
}

// NewBlock returns an all-zero block of n rows of d bits each.
func NewBlock(n, d int) Block {
	w := Words(d)
	return Block{RowWords: w, Words: make([]uint64, n*w)}
}

// BlockOf copies the given vectors into a fresh contiguous block. All
// vectors must share one length; an empty slice yields an empty block.
func BlockOf(vs []Vector) Block {
	if len(vs) == 0 {
		return Block{}
	}
	b := Block{RowWords: len(vs[0]), Words: make([]uint64, len(vs)*len(vs[0]))}
	for i, v := range vs {
		if len(v) != b.RowWords {
			panic(fmt.Sprintf("bitvec: BlockOf row %d has %d words, want %d", i, len(v), b.RowWords))
		}
		copy(b.Words[i*b.RowWords:], v)
	}
	return b
}

// Rows returns the number of rows.
func (b *Block) Rows() int {
	if b.RowWords == 0 {
		return 0
	}
	return len(b.Words) / b.RowWords
}

// Row returns row i as a Vector view into the backing array (no copy;
// mutations write through).
func (b *Block) Row(i int) Vector {
	return Vector(b.Words[i*b.RowWords : (i+1)*b.RowWords])
}

// SetRow copies v into row i.
func (b *Block) SetRow(i int, v Vector) {
	if len(v) != b.RowWords {
		panic(fmt.Sprintf("bitvec: SetRow got %d words, want %d", len(v), b.RowWords))
	}
	copy(b.Words[i*b.RowWords:(i+1)*b.RowWords], v)
}

// Vectors returns per-row Vector views of the block (one slice header per
// row, all sharing the contiguous backing array). Navigation convenience
// for APIs that traffic in []Vector; the storage stays flat.
func (b *Block) Vectors() []Vector {
	out := make([]Vector, b.Rows())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// Slice returns rows [lo, hi) as a block sharing the backing array.
func (b *Block) Slice(lo, hi int) Block {
	return Block{RowWords: b.RowWords, Words: b.Words[lo*b.RowWords : hi*b.RowWords]}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Hash returns a 64-bit FNV-1a hash of the vector contents (each word
// byte by byte, little-endian). Suitable for map keys via Key, and for
// the membership tables' bucket addressing.
func (v Vector) Hash() uint64 {
	h := uint64(fnvOffset)
	for _, w := range v {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> uint(s)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}
