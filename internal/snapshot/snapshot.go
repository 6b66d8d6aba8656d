// Package snapshot is the versioned on-disk format of the index storage
// layer: build an index once (anywhere), serialize every flat backing
// array wholesale, and load it near-instantly on any serving host.
//
// A snapshot is a checksummed little-endian stream (see codec.go): magic,
// format version, a kind tag, kind-specific scalar headers with explicit
// per-section lengths, the raw word arrays, and a CRC-32 trailer. The
// payload is exactly the index's flat storage — the database block, the
// sketch-matrix blocks, and the per-level database-sketch blocks — so
// saving copies no per-entry structures and loading is one sequential
// read per section plus a cheap rebuild of the membership key index.
//
// Three kinds exist: a bare core.Index (KindCore), an anns.Index envelope
// (KindIndex: serving options + one core body per boosted repetition),
// and an anns.ShardedIndex envelope (KindSharded: options, the shard
// partition, and one embedded index envelope per shard). The envelopes'
// scalar layouts live here so Inspect can walk any snapshot without
// importing the public API package; package anns owns the conversion to
// and from its Options type.
//
// Versioning policy: FormatVersion identifies the byte layout, readers
// accept exactly their own version (ErrVersion otherwise), and any layout
// change bumps it — snapshots are cheap to regenerate from the build
// path, so there are no in-place migrations.
//
// Known tradeoff: every core body is self-contained, so a boosted index
// stores its (identical) database section once per repetition. The
// per-repetition payload is dominated by the seed-specific matrices and
// sketches (levels × rows words per point vs. one point image), so the
// duplication stays a small fraction of the file; keeping bodies
// self-contained is what lets one decoder serve all three kinds.
package snapshot

import (
	"fmt"
	"io"
	"os"
)

// IndexOptions is the serialized envelope of an anns.Index: the mirror of
// anns.Options that the format layer owns (so Inspect needs no dependency
// on the public API package).
type IndexOptions struct {
	Dimension      int
	Gamma          float64
	Rounds         int
	Algorithm      int
	Repetitions    int
	Seed           uint64
	RowsMultiplier float64
}

// EncodeIndexOptions writes the envelope scalars of a KindIndex or
// KindSharded body.
func EncodeIndexOptions(e *Encoder, o IndexOptions) {
	e.U64(uint64(o.Dimension))
	e.F64(o.Gamma)
	e.U64(uint64(o.Rounds))
	e.U64(uint64(o.Algorithm))
	e.U64(uint64(o.Repetitions))
	e.U64(o.Seed)
	e.F64(o.RowsMultiplier)
}

// DecodeIndexOptions mirrors EncodeIndexOptions, with the same plausibility
// ceilings the core header enforces.
func DecodeIndexOptions(d Decoder) (IndexOptions, error) {
	o := IndexOptions{
		Dimension:   int(d.U64()),
		Gamma:       d.F64(),
		Rounds:      int(d.U64()),
		Algorithm:   int(d.U64()),
		Repetitions: int(d.U64()),
		Seed:        d.U64(),
	}
	o.RowsMultiplier = d.F64()
	if err := d.Err(); err != nil {
		return o, err
	}
	if o.Dimension < 2 || o.Dimension > maxDim || o.Rounds < 1 || o.Rounds > maxK ||
		o.Repetitions < 1 || o.Repetitions > maxK || !(o.Gamma > 1) {
		return o, fmt.Errorf("%w: implausible index options (d=%d k=%d reps=%d gamma=%v)",
			ErrFormat, o.Dimension, o.Rounds, o.Repetitions, o.Gamma)
	}
	return o, nil
}

// CoreInfo summarizes one embedded core-index body.
type CoreInfo struct {
	D, N, K    int
	Gamma, S   float64
	Seed       uint64
	L          int
	AccRows    int
	CoarseRows int
	Sections   []Section
}

// Words returns the total payload words of the body.
func (c CoreInfo) Words() uint64 {
	var total uint64
	for _, s := range c.Sections {
		total += s.Words
	}
	return total
}

// Info is Inspect's summary of a snapshot file.
type Info struct {
	Version uint32
	Kind    uint32
	// Options is the serving envelope (nil for KindCore).
	Options *IndexOptions
	// Shards is the shard count (0 unless KindSharded).
	Shards int
	// N is the logical database size (summed over shards; live points
	// for KindMutable).
	N int
	// Cores lists every embedded core-index body, in file order.
	Cores []CoreInfo
	// Mutable summarizes the delta tier (nil unless KindMutable).
	Mutable *MutableInfo
	// Bytes is the total stream length including magic and trailer.
	Bytes int64
	// Source records how the snapshot was walked: "stream" (heap
	// decoder) or "mmap" (zero-copy byte decoder). Inspect over a plain
	// io.Reader always reports "stream"; InspectFile reports the path it
	// actually took.
	Source string
	// MappedBytes is the mapping length when Source is "mmap" (0
	// otherwise).
	MappedBytes int64
	// FallbackReason is set when InspectFile wanted the mmap path but
	// fell back to the stream decoder (unsupported platform, map
	// failure).
	FallbackReason string
}

// MutableInfo is Inspect's summary of a KindMutable body's delta tier.
type MutableInfo struct {
	// NextID is the next point ID the tier would assign.
	NextID uint64
	// Base is the rebuilt base index's row count (0 when the tier has no
	// base yet).
	Base int
	// Segments is the sealed segment count; RawSegments of those are
	// stored as raw points. Current writers store every segment raw;
	// older files may hold built segments, which load as raw ones.
	Segments, RawSegments int
	// SegmentPoints is the total point count across sealed segments.
	SegmentPoints int
	// Memtable is the unsealed in-memory entry count.
	Memtable int
	// Tombstones is the number of deletes not yet applied by compaction.
	Tombstones int
}

// KindName renders a snapshot kind for inspection output.
func KindName(kind uint32) string {
	switch kind {
	case KindCore:
		return "core-index"
	case KindIndex:
		return "index"
	case KindSharded:
		return "sharded-index"
	case KindMutable:
		return "mutable-index"
	default:
		return fmt.Sprintf("kind[%d]", kind)
	}
}

// Inspect reads a snapshot's headers and section tables, skipping the
// payload arrays, and verifies the checksum over the whole stream. It
// never materializes an index, so it is cheap even on huge snapshots.
func Inspect(r io.Reader) (*Info, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	info, err := inspectBody(d)
	if err != nil {
		return nil, err
	}
	info.Source = "stream"
	return info, nil
}

// InspectFile inspects the snapshot at path, preferring the mmap walk
// (O(1) section skips — a pure header walk — plus an explicit full
// checksum verification) and falling back to the stream decoder with a
// recorded reason when the file cannot be mapped.
func InspectFile(path string) (*Info, error) {
	m, err := MapFile(path)
	if err != nil {
		f, oerr := os.Open(path)
		if oerr != nil {
			return nil, oerr
		}
		defer f.Close()
		info, ierr := Inspect(f)
		if ierr != nil {
			return nil, ierr
		}
		info.FallbackReason = err.Error()
		return info, nil
	}
	defer m.Close()
	// Inspect promises "checksum ok" on success, so the mmap walk —
	// whose Close is structural only — verifies the trailer explicitly.
	if err := m.VerifyChecksum(); err != nil {
		return nil, err
	}
	d, err := m.Decoder()
	if err != nil {
		return nil, err
	}
	info, err := inspectBody(d)
	if err != nil {
		return nil, err
	}
	info.Source = "mmap"
	info.MappedBytes = int64(m.Len())
	return info, nil
}

// inspectBody walks the body of an opened decoder of any kind.
func inspectBody(d Decoder) (*Info, error) {
	info := &Info{Version: d.Version(), Kind: d.Kind()}
	switch d.Kind() {
	case KindMutable:
		if err := inspectMutable(d, info); err != nil {
			return nil, err
		}
	case KindCore:
		ci, err := inspectCore(d)
		if err != nil {
			return nil, err
		}
		info.Cores = []CoreInfo{ci}
		info.N = ci.N
	case KindIndex, KindSharded:
		opts, err := DecodeIndexOptions(d)
		if err != nil {
			return nil, err
		}
		info.Options = &opts
		shards := 1
		if d.Kind() == KindSharded {
			shards = int(d.U64())
			info.N = int(d.U64())
			if err := d.Err(); err != nil {
				return nil, err
			}
			if shards < 1 || shards > maxK || info.N < 1 || info.N > maxN {
				return nil, fmt.Errorf("%w: implausible shard header (shards=%d n=%d)", ErrFormat, shards, info.N)
			}
			info.Shards = shards
		}
		for s := 0; s < shards; s++ {
			if d.Kind() == KindSharded {
				_ = d.U64() // shard seed
				members := d.U64()
				if err := d.Err(); err != nil {
					return nil, err
				}
				if members > uint64(info.N) {
					return nil, fmt.Errorf("%w: shard %d claims %d members of %d points", ErrFormat, s, members, info.N)
				}
				d.SkipWords(members)
			}
			for rep := 0; rep < info.Options.Repetitions; rep++ {
				ci, err := inspectCore(d)
				if err != nil {
					return nil, fmt.Errorf("shard %d repetition %d: %w", s, rep, err)
				}
				info.Cores = append(info.Cores, ci)
			}
		}
		if d.Kind() == KindIndex && len(info.Cores) > 0 {
			info.N = info.Cores[0].N
		}
	default:
		return nil, fmt.Errorf("%w: unknown snapshot kind %d", ErrFormat, d.Kind())
	}
	if err := d.Close(); err != nil {
		return nil, err
	}
	info.Bytes = d.Bytes() + 4 // header and body are counted as read; + CRC trailer
	return info, nil
}
