// Package segment holds the building blocks of the mutable index tier
// (DESIGN.md §7): a bounded in-memory memtable of freshly inserted
// points, a growable dense-ID bitmap used for liveness and tombstone
// sets, and a CRC-framed write-ahead log that makes mutations durable
// across restarts. The tier itself — sealing memtables into immutable
// segments, fanning queries out over {base, segments, memtable}, and
// compacting back into the static core — is assembled in the public
// anns package (anns.MutableIndex); this package stays below it so the
// storage primitives carry no dependency on the query schemes.
package segment

import "math/bits"

// IDSet is a growable bitmap over the dense uint64 point-ID space the
// mutable tier allocates (IDs are assigned sequentially from 0, so a
// bitmap is both the cheapest and the fastest representation; a million
// live IDs cost 128 KiB). The zero value is empty and ready to use.
// An IDSet is not safe for concurrent use; the mutable tier guards its
// sets with the index lock.
type IDSet struct {
	words []uint64
	count int
}

// NewIDSet returns an empty set.
func NewIDSet() *IDSet { return &IDSet{} }

func (s *IDSet) grow(word int) {
	if word < len(s.words) {
		return
	}
	next := make([]uint64, word+1+word/2)
	copy(next, s.words)
	s.words = next
}

// Add inserts id, reporting whether it was absent.
func (s *IDSet) Add(id uint64) bool {
	w, b := int(id>>6), uint64(1)<<(id&63)
	s.grow(w)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	s.count++
	return true
}

// Remove deletes id, reporting whether it was present.
func (s *IDSet) Remove(id uint64) bool {
	w, b := int(id>>6), uint64(1)<<(id&63)
	if w >= len(s.words) || s.words[w]&b == 0 {
		return false
	}
	s.words[w] &^= b
	s.count--
	return true
}

// Has reports membership.
func (s *IDSet) Has(id uint64) bool {
	w := int(id >> 6)
	return w < len(s.words) && s.words[w]&(1<<(id&63)) != 0
}

// Len returns the number of members.
func (s *IDSet) Len() int { return s.count }

// Clone returns an independent copy.
func (s *IDSet) Clone() *IDSet {
	return &IDSet{words: append([]uint64(nil), s.words...), count: s.count}
}

// AndNot removes every member of o from s (s = s \ o). The compactor
// uses this to retire exactly the tombstones it applied, leaving any
// tombstone that arrived during the rebuild in force.
func (s *IDSet) AndNot(o *IDSet) {
	n := len(s.words)
	if len(o.words) < n {
		n = len(o.words)
	}
	for i := 0; i < n; i++ {
		s.words[i] &^= o.words[i]
	}
	count := 0
	for _, w := range s.words {
		count += bits.OnesCount64(w)
	}
	s.count = count
}

// Each calls f for every member in ascending order.
func (s *IDSet) Each(f func(id uint64)) {
	for wi, w := range s.words {
		for w != 0 {
			f(uint64(wi)<<6 + uint64(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
