package anns

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/segment"
	"repro/internal/snapshot"
)

// KindMutable snapshots capture the mutable tier's full state — the
// rebuilt base with its ID mapping, every sealed segment as raw points,
// the memtable, and the live tombstone set — so a reboot is LoadMutable
// + WAL replay. Files written while sealed segments were still built may
// hold a segment as an embedded index body instead; LoadMutable keeps
// its points and drops the index. The byte layout is documented (and
// independently walked by Inspect) in internal/snapshot/mutable.go;
// TestMutableSnapshotRoundTrip and TestLoadMutableWithBuiltSegments pin
// the two against each other.

// SaveMutable writes a snapshot of the tier's current state to w.
func SaveMutable(w io.Writer, mx *MutableIndex) error {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	return mx.saveLocked(w)
}

// saveLocked encodes the tier under a held lock (persist holds the write
// lock so the WAL truncation that follows observes the same state).
func (mx *MutableIndex) saveLocked(w io.Writer) error {
	e := snapshot.NewEncoder(w, snapshot.KindMutable)
	snapshot.EncodeIndexOptions(e, envelope(mx.opts))
	e.U64(mx.nextID)
	// segSeq and the per-segment seq once seeded segment builds; they are
	// written as the segment count and positions so the layout stays
	// unchanged, and never read back.
	e.U64(uint64(len(mx.segs)))
	e.U64(mx.epoch)
	if mx.base != nil {
		e.U64(1)
		n := mx.base.Len()
		e.U64(uint64(n))
		ids := mx.baseIDs
		if ids == nil {
			ids = make([]uint64, n)
			for j := range ids {
				ids[j] = uint64(j)
			}
		}
		e.Words(ids)
		encodeIndexBody(e, mx.base)
	} else {
		e.U64(0)
	}
	e.U64(uint64(len(mx.segs)))
	for s, seg := range mx.segs {
		e.U64(uint64(s))
		e.U64(uint64(seg.Len()))
		e.Words(seg.IDs())
		e.U64(0) // built: never
		for _, p := range seg.Points() {
			e.Words(p)
		}
	}
	e.U64(uint64(mx.mem.Len()))
	e.Words(mx.mem.IDs())
	for _, p := range mx.mem.Points() {
		e.Words(p)
	}
	tombs := make([]uint64, 0, mx.tomb.Len())
	mx.tomb.Each(func(id uint64) { tombs = append(tombs, id) })
	e.U64(uint64(len(tombs)))
	e.Words(tombs)
	return e.Close()
}

// decodeChunkWords bounds each step of decodeWords: a count the file
// claims is believed only as far as its words actually arrive.
const decodeChunkWords = 1 << 16

// decodeWords reads a count-word array in bounded chunks, growing the
// result as it goes. count comes from the file, so a corrupt header
// fails at the first missing chunk instead of allocating count words
// up front.
func decodeWords(d snapshot.Decoder, count uint64) ([]uint64, error) {
	out := make([]uint64, 0, min(count, decodeChunkWords))
	for left := count; left > 0; {
		n := int(min(left, decodeChunkWords))
		out = slices.Grow(out, n)
		d.WordsInto(out[len(out) : len(out)+n])
		if err := d.Err(); err != nil {
			return nil, err
		}
		out = out[:len(out)+n]
		left -= uint64(n)
	}
	return out, nil
}

// decodeIDs reads a validated count-prefixed ID array.
func decodeIDs(d snapshot.Decoder, count uint64, nextID uint64, what string) ([]uint64, error) {
	if count > nextID {
		return nil, fmt.Errorf("%w: %s claims %d ids under next-id %d",
			snapshot.ErrFormat, what, count, nextID)
	}
	ids, err := decodeWords(d, count)
	if err != nil {
		return nil, err
	}
	for j, id := range ids {
		if id >= nextID {
			return nil, fmt.Errorf("%w: %s id %d at %d exceeds next-id %d",
				snapshot.ErrFormat, what, id, j, nextID)
		}
	}
	return ids, nil
}

// decodeRawPoints reads count flat point images of dimension dim.
func decodeRawPoints(d snapshot.Decoder, count uint64, dim int) ([]Point, error) {
	w := bitvec.Words(dim)
	flat, err := decodeWords(d, count*uint64(w))
	if err != nil {
		return nil, err
	}
	pts := make([]Point, count)
	for i := range pts {
		pts[i] = Point(flat[uint64(i)*uint64(w) : uint64(i+1)*uint64(w)])
	}
	return pts, nil
}

// LoadMutable reads a mutable-tier snapshot from r and brings the tier
// up under cfg (whose runtime knobs — memtable cap, compaction cadence,
// WAL and snapshot paths — apply; the build options come from the file,
// so seeds and parameters survive restarts). It accepts either a
// KindMutable snapshot or a plain KindIndex one, which becomes the
// tier's base with identity IDs — the path that boots a mutable server
// from an annsctl-built (or annsctl-compacted) static snapshot.
func LoadMutable(r io.Reader, cfg MutableConfig) (*MutableIndex, error) {
	d, err := snapshot.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	switch d.Kind() {
	case snapshot.KindIndex:
		ix, err := decodeIndexBody(d)
		if err == nil {
			err = d.Close()
		}
		if err != nil {
			return nil, err
		}
		cfg.Options = ix.Options()
		return NewMutable(ix, cfg)
	case snapshot.KindMutable:
		// handled below
	default:
		return nil, fmt.Errorf("%w: kind %q cannot boot a mutable tier",
			snapshot.ErrFormat, snapshot.KindName(d.Kind()))
	}

	env, err := snapshot.DecodeIndexOptions(d)
	if err != nil {
		return nil, err
	}
	cfg.Options = unenvelope(env)
	cfg, err = cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	opts, err := cfg.Options.normalized()
	if err != nil {
		return nil, err
	}
	mx := &MutableIndex{
		cfg:     cfg,
		opts:    opts,
		mem:     segment.NewMemtable(),
		tomb:    segment.NewIDSet(),
		present: segment.NewIDSet(),
	}
	mx.nextID = d.U64()
	_ = d.U64() // segSeq: unread, see saveLocked
	mx.epoch = d.U64()
	hasBase := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// nextID bounds every ID-array length below (decodeIDs), so capping
	// it here is what keeps a corrupt header failing with ErrFormat
	// instead of an absurd allocation — the same ceiling Inspect uses.
	if mx.nextID > snapshot.MaxPlausibleN {
		return nil, fmt.Errorf("%w: implausible next-id %d", snapshot.ErrFormat, mx.nextID)
	}
	if hasBase > 1 {
		return nil, fmt.Errorf("%w: mutable base flag is %d", snapshot.ErrFormat, hasBase)
	}
	if hasBase == 1 {
		count := d.U64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ids, err := decodeIDs(d, count, mx.nextID, "base")
		if err != nil {
			return nil, err
		}
		base, err := decodeIndexBody(d)
		if err != nil {
			return nil, fmt.Errorf("base: %w", err)
		}
		if base.Len() != len(ids) {
			return nil, fmt.Errorf("%w: base holds %d points but maps %d ids",
				snapshot.ErrFormat, base.Len(), len(ids))
		}
		if base.Options().Dimension != opts.Dimension {
			return nil, fmt.Errorf("%w: base dimension %d under envelope dimension %d",
				snapshot.ErrFormat, base.Options().Dimension, opts.Dimension)
		}
		mx.base, mx.baseIDs = base, ids
		for _, id := range ids {
			mx.present.Add(id)
		}
	}
	nsegs := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if nsegs > snapshot.MaxPlausibleSegments {
		return nil, fmt.Errorf("%w: implausible segment count %d", snapshot.ErrFormat, nsegs)
	}
	for s := uint64(0); s < nsegs; s++ {
		_ = d.U64() // seq: unread, see saveLocked
		count := d.U64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		ids, err := decodeIDs(d, count, mx.nextID, fmt.Sprintf("segment %d", s))
		if err != nil {
			return nil, err
		}
		built := d.U64()
		if err := d.Err(); err != nil {
			return nil, err
		}
		var pts []Point
		switch built {
		case 1:
			// Older files hold built segments; only their points are kept.
			ix, err := decodeIndexBody(d)
			if err != nil {
				return nil, fmt.Errorf("segment %d: %w", s, err)
			}
			if ix.Len() != len(ids) {
				return nil, fmt.Errorf("%w: segment %d holds %d points but maps %d ids",
					snapshot.ErrFormat, s, ix.Len(), len(ids))
			}
			pts = ix.points()
		case 0:
			pts, err = decodeRawPoints(d, count, opts.Dimension)
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: segment %d built flag is %d", snapshot.ErrFormat, s, built)
		}
		for _, id := range ids {
			mx.present.Add(id)
		}
		mx.segs = append(mx.segs, segment.NewMemtableFrom(ids, pts))
	}
	memCount := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	memIDs, err := decodeIDs(d, memCount, mx.nextID, "memtable")
	if err != nil {
		return nil, err
	}
	memPts, err := decodeRawPoints(d, memCount, opts.Dimension)
	if err != nil {
		return nil, err
	}
	mx.mem = segment.NewMemtableFrom(memIDs, memPts)
	for _, id := range memIDs {
		mx.present.Add(id)
	}
	tombCount := d.U64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	tombs, err := decodeIDs(d, tombCount, mx.nextID, "tombstones")
	if err != nil {
		return nil, err
	}
	for _, id := range tombs {
		if !mx.present.Remove(id) {
			return nil, fmt.Errorf("%w: tombstone %d does not name a stored point",
				snapshot.ErrFormat, id)
		}
		mx.tomb.Add(id)
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	if err := mx.start(); err != nil {
		return nil, err
	}
	return mx, nil
}
