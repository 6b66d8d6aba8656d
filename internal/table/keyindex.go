package table

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
)

// pointKeyIndex is the binary-keyed membership index: it maps a packed
// point to its first occurrence in the database block via open addressing
// over a flat power-of-two slot array. Keys are never materialized — a
// probe hashes and compares the candidate's words in place (a block row,
// or the flat words of a cell-address payload), so building and
// querying the index allocates no per-entry strings, unlike the
// map[string]int it replaced.
//
// The slot array is built lazily on the first probe: it is the only
// O(n·d) derived structure on the load path, and hashing every database
// row up front is what would keep a zero-copy mmap open from being O(1)
// in the database size (DESIGN.md §9.1). Deferring it changes nothing
// observable — the build is a pure function of the block, costs no
// cell probes, and the warmed probe path stays allocation-free.
type pointKeyIndex struct {
	block *bitvec.Block
	ready atomic.Bool // slots/mask published (release store, acquire load)
	mu    sync.Mutex
	slots []uint32 // database index + 1; 0 marks an empty slot
	mask  uint32
}

// newPointKeyIndex prepares an index over block; rows are hashed on the
// first probe, not here. Duplicate points keep the lowest index (first
// occurrence wins, matching the map-based semantics).
func newPointKeyIndex(block *bitvec.Block) *pointKeyIndex {
	return &pointKeyIndex{block: block}
}

// init builds the slot array once, on the first probe. Concurrent
// probers block until the build is published; after that the check is
// one atomic load.
func (pi *pointKeyIndex) init() {
	if pi.ready.Load() {
		return
	}
	pi.mu.Lock()
	defer pi.mu.Unlock()
	if pi.ready.Load() {
		return
	}
	n := pi.block.Rows()
	capacity := 1 << bits.Len(uint(2*n))
	if capacity < 16 {
		capacity = 16
	}
	pi.slots = make([]uint32, capacity)
	pi.mask = uint32(capacity - 1)
	for i := 0; i < n; i++ {
		pi.insert(i)
	}
	pi.ready.Store(true)
}

func (pi *pointKeyIndex) insert(i int) {
	row := pi.block.Row(i)
	for s := uint32(row.Hash()) & pi.mask; ; s = (s + 1) & pi.mask {
		v := pi.slots[s]
		if v == 0 {
			pi.slots[s] = uint32(i) + 1
			return
		}
		if bitvec.Equal(pi.block.Row(int(v-1)), row) {
			return
		}
	}
}

// lookup returns the index of the database point equal to x.
func (pi *pointKeyIndex) lookup(x bitvec.Vector) (int, bool) {
	if len(x) != pi.block.RowWords {
		return -1, false
	}
	pi.init()
	for s := uint32(x.Hash()) & pi.mask; ; s = (s + 1) & pi.mask {
		v := pi.slots[s]
		if v == 0 {
			return -1, false
		}
		if bitvec.Equal(pi.block.Row(int(v-1)), x) {
			return int(v - 1), true
		}
	}
}
