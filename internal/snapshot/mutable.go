package snapshot

import (
	"fmt"

	"repro/internal/bitvec"
)

// KindMutable body layout (format v2). Package anns owns the encode and
// decode of the live structures (anns/mutable_snapshot.go); this file is
// the format layer's independent walk of the same byte layout, so
// Inspect can summarize a mutable snapshot — segment and tombstone
// counts included — without importing the public API package. The two
// must agree; TestMutableSnapshotRoundTrip and
// TestLoadMutableWithBuiltSegments in package anns pin them together.
//
//	envelope   IndexOptions (the tier's serving/build options)
//	scalars    nextID u64, segSeq u64, epoch u64
//	base       hasBase u64 (0|1); if 1:
//	             count u64, ids word-array [count]
//	             index body (IndexOptions + Repetitions × core body)
//	segments   count u64; per segment:
//	             seq u64, points u64, ids word-array [points],
//	             built u64 (0|1);
//	             if built: index body, else: raw point word-array
//	             [points × Words(d)]
//	memtable   count u64, ids word-array [count],
//	           raw point word-array [count × Words(d)]
//	tombstones count u64, ids word-array [count] (ascending)
//
// segSeq and seq once seeded per-segment index builds. Sealed segments
// are no longer built, so writers emit built = 0, segSeq = the segment
// count and seq = the segment's position, and readers ignore both
// numbers; built = 1 records survive only in older files, and loading
// one keeps its points and drops its index.
const mutableLayoutDoc = 0 // (doc anchor; no runtime content)

// maxSegments caps the declared sealed-segment count: segments are
// bounded by compaction in any live system, so thousands already means
// a corrupt header.
const maxSegments = 1 << 20

// MaxPlausibleN and MaxPlausibleSegments export the header-plausibility
// ceilings for package anns's KindMutable decoder, so LoadMutable fails
// a corrupt header with ErrFormat at exactly the bounds Inspect
// enforces — never with an absurd allocation.
const (
	MaxPlausibleN        = maxN
	MaxPlausibleSegments = maxSegments
)

// inspectIndexBody walks one embedded index body (envelope + one core
// per repetition), appending core summaries to info.
func inspectIndexBody(d Decoder, info *Info, what string) (IndexOptions, int, error) {
	opts, err := DecodeIndexOptions(d)
	if err != nil {
		return opts, 0, err
	}
	n := 0
	for rep := 0; rep < opts.Repetitions; rep++ {
		ci, err := inspectCore(d)
		if err != nil {
			return opts, 0, fmt.Errorf("%s repetition %d: %w", what, rep, err)
		}
		n = ci.N
		info.Cores = append(info.Cores, ci)
	}
	return opts, n, nil
}

// inspectMutable walks a KindMutable body, skipping payload arrays.
func inspectMutable(d Decoder, info *Info) error {
	opts, err := DecodeIndexOptions(d)
	if err != nil {
		return err
	}
	info.Options = &opts
	ptWords := uint64(bitvec.Words(opts.Dimension))
	mi := &MutableInfo{NextID: d.U64()}
	_ = d.U64() // segSeq
	_ = d.U64() // epoch
	hasBase := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if hasBase > 1 {
		return fmt.Errorf("%w: mutable base flag is %d", ErrFormat, hasBase)
	}
	if hasBase == 1 {
		count := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if count > maxN {
			return fmt.Errorf("%w: mutable base claims %d rows", ErrFormat, count)
		}
		d.SkipWords(count)
		_, n, err := inspectIndexBody(d, info, "base")
		if err != nil {
			return err
		}
		if n != int(count) {
			return fmt.Errorf("%w: base holds %d points but maps %d ids", ErrFormat, n, count)
		}
		mi.Base = int(count)
	}
	nsegs := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if nsegs > maxSegments {
		return fmt.Errorf("%w: mutable body claims %d segments", ErrFormat, nsegs)
	}
	mi.Segments = int(nsegs)
	for s := uint64(0); s < nsegs; s++ {
		_ = d.U64() // seq
		points := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		if points > maxN {
			return fmt.Errorf("%w: segment %d claims %d points", ErrFormat, s, points)
		}
		d.SkipWords(points)
		built := d.U64()
		if err := d.Err(); err != nil {
			return err
		}
		switch built {
		case 1:
			if _, _, err := inspectIndexBody(d, info, fmt.Sprintf("segment %d", s)); err != nil {
				return err
			}
		case 0:
			mi.RawSegments++
			d.SkipWords(points * ptWords)
		default:
			return fmt.Errorf("%w: segment %d built flag is %d", ErrFormat, s, built)
		}
		mi.SegmentPoints += int(points)
	}
	memCount := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if memCount > maxN {
		return fmt.Errorf("%w: memtable claims %d entries", ErrFormat, memCount)
	}
	mi.Memtable = int(memCount)
	d.SkipWords(memCount)
	d.SkipWords(memCount * ptWords)
	tombs := d.U64()
	if err := d.Err(); err != nil {
		return err
	}
	if tombs > maxN {
		return fmt.Errorf("%w: %d tombstones", ErrFormat, tombs)
	}
	mi.Tombstones = int(tombs)
	d.SkipWords(tombs)
	if err := d.Err(); err != nil {
		return err
	}
	info.Mutable = mi
	info.N = mi.Base + mi.SegmentPoints + mi.Memtable - mi.Tombstones
	return nil
}
