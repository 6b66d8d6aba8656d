package cellprobe

import (
	"fmt"
	"slices"
)

// memo is the oracle's cell store: an exact-key open-addressing table from
// address payloads to cell contents, flat and pointer-free. A cell is one
// variable-length row of a chunked []uint64 arena,
//
//	header | payload word 0 | … | payload word len-1
//	header = value<<24 | len<<8 | kind
//
// and the slot array holds row references (chunk<<16 | offset, plus one so
// that zero marks an empty slot), linearly probed. A ball-table cell over
// 6-word sketches therefore costs 56 arena bytes plus its share of the
// slots, against the 184-byte key/value pair (and bucket overhead) of the
// map[Addr]Word this replaces. Keys stay exact: a hit compares the full
// payload, never a fingerprint, because a false hit would silently return
// another cell's content — a wrong answer the model has no way to detect.
// The table's tag is not part of the key: a memo belongs to one table, and
// a cell of that table is identified by its address bits alone.
//
// The zero value is an empty memo that owns no memory (a freshly opened
// index builds O(L·shards) oracles before the first query arrives). memo
// is not safe for concurrent use; Oracle guards it with its RWMutex.
type memo struct {
	slots  []uint32   // row ref + 1; 0 = empty; len is zero or a power of two
	chunks [][]uint64 // the arena; len(chunk) is its used prefix, rows never span chunks
	words  int        // arena capacity, all chunks together
	n      int        // rows stored
}

const (
	memoMinSlots      = 8
	memoMinChunkWords = 256     // 2 KiB: a table with a handful of cells stays small
	memoMaxChunkWords = 1 << 13 // 64 KiB: the most one table's arena can leave unused
	memoOffsetBits    = 16      // a row ref addresses up to 2^16 words inside its chunk
	memoMaxChunks     = 1<<(32-memoOffsetBits) - 1
	memoMaxValue      = 1<<40 - 1
)

// hashWords mixes a payload into a slot hash (multiply–xorshift per word;
// the length seeds the state so prefixes of zero words do not collide).
func hashWords(p []uint64) uint64 {
	h := uint64(len(p)+1) * 0x9e3779b97f4a7c15
	for _, w := range p {
		h = (h ^ w) * 0xff51afd7ed558ccd
		h ^= h >> 32
	}
	return h
}

// packHeader encodes a cell content and payload length. It is lossless or
// it panics: a Word carries its number in Index (Point) or Value (every
// other kind), and the number must fit the 40-bit field.
func packHeader(w Word, payloadLen int) uint64 {
	v, other := w.Value, w.Index
	if w.Kind == Point {
		v, other = w.Index, w.Value
	}
	if other != 0 || v < 0 || v > memoMaxValue {
		panic(fmt.Sprintf("cellprobe: cell content %+v is not representable in the memo", w))
	}
	return uint64(v)<<24 | uint64(payloadLen)<<8 | uint64(w.Kind)
}

func unpackHeader(h uint64) Word {
	w := Word{Kind: Kind(h)}
	if w.Kind == Point {
		w.Index = int(h >> 24)
	} else {
		w.Value = int(h >> 24)
	}
	return w
}

func headerLen(h uint64) int { return int(h >> 8 & 0xffff) }

// row returns the arena words from ref's header to the end of its chunk.
func (m *memo) row(ref uint32) []uint64 {
	return m.chunks[ref>>memoOffsetBits][ref&(1<<memoOffsetBits-1):]
}

// find probes for key and returns its slot and whether the slot holds it;
// on a miss the slot is the empty one an insert would take. The memo must
// have slots.
func (m *memo) find(hash uint64, key []uint64) (slot uint32, ok bool) {
	mask := uint32(len(m.slots) - 1)
	for s := uint32(hash) & mask; ; s = (s + 1) & mask {
		v := m.slots[s]
		if v == 0 {
			return s, false
		}
		row := m.row(v - 1)
		if headerLen(row[0]) == len(key) && slices.Equal(row[1:1+len(key)], key) {
			return s, true
		}
	}
}

// get returns the content memoised for key (whose hash is hashWords(key)).
func (m *memo) get(hash uint64, key []uint64) (Word, bool) {
	if len(m.slots) == 0 {
		return Word{}, false
	}
	s, ok := m.find(hash, key)
	if !ok {
		return Word{}, false
	}
	return unpackHeader(m.row(m.slots[s] - 1)[0]), true
}

// put memoises w for key. A key already present keeps its first content
// (evaluation is deterministic, so a racing second put carries the same).
func (m *memo) put(hash uint64, key []uint64, w Word) {
	if 4*(m.n+1) > 3*len(m.slots) {
		m.grow()
	}
	s, ok := m.find(hash, key)
	if ok {
		return
	}
	m.slots[s] = m.appendRow(packHeader(w, len(key)), key) + 1
	m.n++
}

// grow doubles the slot array and re-inserts every row by walking the
// arena (rows are self-describing, so slots need not store hashes).
func (m *memo) grow() {
	size := 2 * len(m.slots)
	if size < memoMinSlots {
		size = memoMinSlots
	}
	m.slots = make([]uint32, size)
	mask := uint32(size - 1)
	for c, chunk := range m.chunks {
		for off := 0; off < len(chunk); {
			n := headerLen(chunk[off])
			s := uint32(hashWords(chunk[off+1:off+1+n])) & mask
			for m.slots[s] != 0 {
				s = (s + 1) & mask
			}
			m.slots[s] = (uint32(c)<<memoOffsetBits | uint32(off)) + 1
			off += 1 + n
		}
	}
}

// appendRow writes header|key into the arena and returns the row ref,
// opening a new chunk when the current one cannot hold the row whole.
func (m *memo) appendRow(header uint64, key []uint64) uint32 {
	need := 1 + len(key)
	last := len(m.chunks) - 1
	if last < 0 || cap(m.chunks[last])-len(m.chunks[last]) < need {
		if len(m.chunks) == memoMaxChunks {
			panic("cellprobe: memo arena is full")
		}
		// A new chunk is a quarter of the arena so far, within the two
		// bounds: the unused tail stays a small share of a small memo. An
		// oversize row (≤ 2^16 words) gets a chunk of its own.
		size := max(need, min(max(m.words/4, memoMinChunkWords), memoMaxChunkWords))
		m.chunks = append(m.chunks, make([]uint64, 0, size))
		m.words += size
		last++
	}
	chunk := m.chunks[last]
	off := len(chunk)
	chunk = append(chunk, header)
	m.chunks[last] = append(chunk, key...)
	return uint32(last)<<memoOffsetBits | uint32(off)
}
