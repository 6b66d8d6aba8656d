package segment

import (
	"repro/internal/bitvec"
)

// Memtable is the in-memory delta tier: freshly inserted points with
// their assigned IDs, queried by exact brute-force Hamming scan. The
// scan reads every entry, so its cell-probe accounting is honest and
// deterministic: one round, Len() probes. Entries are append-only;
// deletes tombstone (the scan skips members of the caller's dead set)
// and are physically dropped only at compaction.
//
// A full memtable seals into an immutable segment and stays one until
// compaction, so the same Scan serves the active memtable and every
// sealed segment.
//
// A Memtable is not safe for concurrent mutation; the mutable tier
// guards appends with its index lock.
type Memtable struct {
	ids []uint64
	pts []bitvec.Vector
}

// NewMemtable returns an empty memtable.
func NewMemtable() *Memtable { return &Memtable{} }

// NewMemtableFrom rebuilds a memtable from parallel id/point slices (the
// snapshot load path). The slices are retained.
func NewMemtableFrom(ids []uint64, pts []bitvec.Vector) *Memtable {
	if len(ids) != len(pts) {
		panic("segment: ids and points length mismatch")
	}
	return &Memtable{ids: ids, pts: pts}
}

// Append adds one point under the given ID. The point is retained, not
// copied.
func (m *Memtable) Append(id uint64, p bitvec.Vector) {
	m.ids = append(m.ids, id)
	m.pts = append(m.pts, p)
}

// Len returns the number of entries (including tombstoned ones — they
// leave only at compaction).
func (m *Memtable) Len() int { return len(m.ids) }

// IDs returns the entry IDs in insertion order. The slice is owned by
// the memtable; callers must not mutate it.
func (m *Memtable) IDs() []uint64 { return m.ids }

// Points returns the entries in insertion order (same ownership rule).
func (m *Memtable) Points() []bitvec.Vector { return m.pts }

// ScanResult is one exact scan's answer and accounting.
type ScanResult struct {
	// Found reports whether any live entry exists; ID/Pos/Dist are only
	// meaningful when it is set.
	Found bool
	// ID is the winning entry's point ID, Pos its position in the
	// memtable, Dist its exact Hamming distance to the query. Ties break
	// to the earliest-inserted (lowest-position) entry.
	ID   uint64
	Pos  int
	Dist int
	// Scanned is the number of entries examined — the probe count the
	// model charges for the brute-force tier (every entry is read, dead
	// or not, in one parallel round).
	Scanned int
}

// Scan returns the exact nearest live entry to x, skipping entries whose
// ID is in dead (nil means nothing is dead).
func (m *Memtable) Scan(x bitvec.Vector, dead *IDSet) ScanResult {
	out := ScanResult{Scanned: len(m.ids), Pos: -1, Dist: -1}
	for i, p := range m.pts {
		if dead != nil && dead.Has(m.ids[i]) {
			continue
		}
		d := bitvec.Distance(p, x)
		if !out.Found || d < out.Dist {
			out.Found = true
			out.ID, out.Pos, out.Dist = m.ids[i], i, d
		}
	}
	return out
}
