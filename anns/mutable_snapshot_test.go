package anns

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// saveMutableBuiltSegments writes mx as KindMutable files were written
// while sealed segments were built: every sealed segment is a built = 1
// record holding an embedded index body over its points, seeded as those
// builds were. Everything else matches saveLocked.
func saveMutableBuiltSegments(w io.Writer, mx *MutableIndex) error {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	e := snapshot.NewEncoder(w, snapshot.KindMutable)
	snapshot.EncodeIndexOptions(e, envelope(mx.opts))
	e.U64(mx.nextID)
	e.U64(uint64(len(mx.segs)))
	e.U64(mx.epoch)
	e.U64(1)
	ids := mx.baseIDs
	if ids == nil {
		ids = make([]uint64, mx.base.Len())
		for j := range ids {
			ids[j] = uint64(j)
		}
	}
	e.U64(uint64(len(ids)))
	e.Words(ids)
	encodeIndexBody(e, mx.base)
	e.U64(uint64(len(mx.segs)))
	for s, seg := range mx.segs {
		opts := mx.opts
		opts.Seed = splitSeed(mx.opts.Seed^0x5e65a11d5eed0001, s)
		ix, err := Build(seg.Points(), opts)
		if err != nil {
			return err
		}
		e.U64(uint64(s))
		e.U64(uint64(seg.Len()))
		e.Words(seg.IDs())
		e.U64(1)
		encodeIndexBody(e, ix)
	}
	e.U64(uint64(mx.mem.Len()))
	e.Words(mx.mem.IDs())
	for _, p := range mx.mem.Points() {
		e.Words(p)
	}
	var tombs []uint64
	mx.tomb.Each(func(id uint64) { tombs = append(tombs, id) })
	e.U64(uint64(len(tombs)))
	e.Words(tombs)
	return e.Close()
}

// TestLoadMutableWithBuiltSegments pins the old-file path: a snapshot
// whose sealed segments were saved built loads as raw segments, answers
// exactly as a tier fed the same mutations, and re-saves raw.
func TestLoadMutableWithBuiltSegments(t *testing.T) {
	const d, n = 128, 40
	db, _ := snapshotCorpus(t, n, d)
	base, err := Build(db, Options{Dimension: d, Rounds: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := NewMutable(base, MutableConfig{MemtableCap: 8, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mx.Close()
	r := rng.New(5)
	var inserted []Point
	for i := 0; i < 19; i++ { // two sealed segments + 3 memtable entries
		p := hamming.AtDistance(r, db[r.Intn(n)], d, 1+r.Intn(20))
		inserted = append(inserted, p)
		if _, err := mx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{3, n + 2, n + 9, n + 17} { // base, both segments, memtable
		if ok, err := mx.Delete(id); !ok || err != nil {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
	var old bytes.Buffer
	if err := saveMutableBuiltSegments(&old, mx); err != nil {
		t.Fatal(err)
	}

	info, err := snapshot.Inspect(bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatalf("Inspect(old file): %v", err)
	}
	mi := info.Mutable
	if mi == nil || mi.Segments != 2 || mi.RawSegments != 0 || mi.SegmentPoints != 16 ||
		mi.Memtable != 3 || mi.Tombstones != 4 || info.N != mx.Len() {
		t.Fatalf("Inspect(old file): N=%d %+v, tier has %d live", info.N, mi, mx.Len())
	}

	loaded, err := LoadMutable(bytes.NewReader(old.Bytes()), MutableConfig{Synchronous: true})
	if err != nil {
		t.Fatalf("LoadMutable(old file): %v", err)
	}
	defer loaded.Close()
	if st := loaded.MutableStats(); st.Sealed != 2 || st.Memtable != 3 || st.LiveN != mx.Len() {
		t.Fatalf("loaded stats %+v", st)
	}
	for i := 0; i < 60; i++ {
		src := db[i%n]
		if i%2 == 1 {
			src = inserted[i%len(inserted)]
		}
		x := hamming.AtDistance(r, src, d, 1+i%15)
		got, gerr := loaded.Query(x)
		want, werr := mx.Query(x)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Fatalf("query %d: loaded %+v (err=%v), fresh tier %+v (err=%v)", i, got, gerr, want, werr)
		}
	}

	var resaved, fresh bytes.Buffer
	if err := SaveMutable(&resaved, loaded); err != nil {
		t.Fatal(err)
	}
	if err := SaveMutable(&fresh, mx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), fresh.Bytes()) {
		t.Fatal("re-saved old file differs from the fresh tier's snapshot")
	}
	info, err = snapshot.Inspect(bytes.NewReader(resaved.Bytes()))
	if err != nil {
		t.Fatalf("Inspect(re-saved): %v", err)
	}
	if mi := info.Mutable; mi.Segments != 2 || mi.RawSegments != 2 || mi.SegmentPoints != 16 {
		t.Fatalf("re-saved segments not raw: %+v", mi)
	}
	again, err := LoadMutable(bytes.NewReader(resaved.Bytes()), MutableConfig{Synchronous: true})
	if err != nil {
		t.Fatalf("LoadMutable(re-saved): %v", err)
	}
	defer again.Close()
	var twice bytes.Buffer
	if err := SaveMutable(&twice, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(twice.Bytes(), resaved.Bytes()) {
		t.Fatal("re-saved snapshot does not round-trip")
	}
}

// TestLoadMutableBoundsClaimedCounts feeds LoadMutable short files whose
// headers claim 2³² IDs: each must fail as a malformed file without
// allocating for the claim.
func TestLoadMutableBoundsClaimedCounts(t *testing.T) {
	const claim = 1 << 32
	opts, err := Options{Dimension: 64}.normalized()
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]uint64{
		// nextID, segSeq, epoch, hasBase, then the claiming count.
		"base ids":     {claim, 0, 0, 1, claim},
		"segment ids":  {claim, 0, 0, 0, 1, 0, claim},
		"memtable ids": {claim, 0, 0, 0, 0, claim},
	} {
		var buf bytes.Buffer
		e := snapshot.NewEncoder(&buf, snapshot.KindMutable)
		snapshot.EncodeIndexOptions(e, envelope(opts))
		for _, w := range body {
			e.U64(w)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := LoadMutable(bytes.NewReader(buf.Bytes()), MutableConfig{Synchronous: true})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrFormat) && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s (%d-byte file): err = %v, want ErrFormat or ErrUnexpectedEOF", name, buf.Len(), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 16<<20 {
			t.Errorf("%s (%d-byte file): decoding allocated %d bytes", name, buf.Len(), grew)
		}
	}
}
