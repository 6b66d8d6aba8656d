package anns_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"repro/anns"
	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// newMutable builds a synchronous mutable tier for tests (deterministic
// structure evolution).
func newMutable(t *testing.T, base *anns.Index, cfg anns.MutableConfig) *anns.MutableIndex {
	t.Helper()
	cfg.Synchronous = true
	mx, err := anns.NewMutable(base, cfg)
	if err != nil {
		t.Fatalf("NewMutable: %v", err)
	}
	t.Cleanup(func() { mx.Close() })
	return mx
}

// TestMutableMemtableIsExactOracle pins the delta tier's foundation:
// while everything lives in the memtable (no base, no seals), answers
// are byte-identical to a brute-force oracle — exact nearest live point,
// lowest-ID tie-break, one round, one probe per stored entry.
func TestMutableMemtableIsExactOracle(t *testing.T) {
	const d, n = 128, 50
	mx := newMutable(t, nil, anns.MutableConfig{
		Options:     anns.Options{Dimension: d, Rounds: 2, Seed: 9},
		MemtableCap: 4 * n, // never seals
	})
	r := rng.New(77)
	pts := make([]anns.Point, n)
	for i := range pts {
		pts[i] = hamming.Random(r, d)
		id, err := mx.Insert(pts[i])
		if err != nil || id != uint64(i) {
			t.Fatalf("insert %d: id=%d err=%v", i, id, err)
		}
	}
	deleted := map[int]bool{3: true, 17: true, 41: true}
	for id := range deleted {
		if ok, err := mx.Delete(uint64(id)); !ok || err != nil {
			t.Fatalf("delete %d: ok=%v err=%v", id, ok, err)
		}
	}
	if mx.Len() != n-len(deleted) {
		t.Fatalf("Len = %d, want %d", mx.Len(), n-len(deleted))
	}
	for trial := 0; trial < 40; trial++ {
		x := hamming.AtDistance(r, pts[trial%n], d, 1+trial%20)
		res, err := mx.Query(x)
		if err != nil {
			t.Fatalf("query %d: %v", trial, err)
		}
		// Brute-force oracle over live points, first minimal wins.
		best, bestDist := -1, -1
		for i, p := range pts {
			if deleted[i] {
				continue
			}
			dist := bitvec.Distance(p, x)
			if best < 0 || dist < bestDist {
				best, bestDist = i, dist
			}
		}
		want := anns.Result{Index: best, Distance: bestDist, Rounds: 1, Probes: n, MaxParallel: n}
		if res != want {
			t.Fatalf("query %d: got %+v, want %+v", trial, res, want)
		}
	}
	// λ-decision: the exact tier answers YES within Gamma·lambda, NO above.
	x := hamming.AtDistance(r, pts[0], d, 5)
	res, err := mx.QueryNear(x, 5)
	if err != nil || res.Index < 0 || res.Distance > 10 {
		t.Fatalf("QueryNear YES: %+v err=%v", res, err)
	}
	if res, err = mx.QueryNear(x, 0.5); err != nil || res.Index != -1 {
		// Nearest is at distance 5 > 2·0.5: must answer NO.
		t.Fatalf("QueryNear NO: %+v err=%v", res, err)
	}
}

func TestMutableValidationAndLifecycle(t *testing.T) {
	const d = 64
	mx := newMutable(t, nil, anns.MutableConfig{Options: anns.Options{Dimension: d}})
	if _, err := mx.Insert(make(anns.Point, 5)); err == nil {
		t.Error("Insert accepted a wrong-width point")
	}
	if ok, err := mx.Delete(99); ok || err != nil {
		t.Errorf("Delete of absent id: ok=%v err=%v", ok, err)
	}
	if _, err := mx.Query(make(anns.Point, 1)); err == nil {
		t.Error("Query on an empty tier succeeded")
	}
	if res, err := mx.QueryNear(make(anns.Point, 1), 3); err != nil || res.Index != -1 {
		t.Errorf("QueryNear on empty tier: %+v err=%v (want the NO answer)", res, err)
	}
	if err := mx.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := mx.Insert(make(anns.Point, 1)); err == nil {
		t.Error("Insert after Close succeeded")
	}
	if _, err := anns.NewMutable(nil, anns.MutableConfig{Options: anns.Options{Dimension: d}, MemtableCap: 1}); err == nil {
		t.Error("MemtableCap=1 accepted")
	}
	if _, err := anns.NewMutable(nil, anns.MutableConfig{}); err == nil {
		t.Error("missing dimension accepted")
	}
}

// TestMutableLayersOverBase checks the fan-out across base + memtable:
// a fresh insert closer than anything in the base wins, a deleted base
// point stops being returned, and accounting sums across tiers.
func TestMutableLayersOverBase(t *testing.T) {
	const d, n = 256, 80
	pts := testPoints(t, d, n)
	base, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	mx := newMutable(t, base, anns.MutableConfig{MemtableCap: 1 << 20})
	r := rng.New(5)
	x := hamming.Random(r, d)
	planted := hamming.AtDistance(r, x, d, 2)
	id, err := mx.Insert(planted)
	if err != nil || id != uint64(n) {
		t.Fatalf("insert: id=%d err=%v", id, err)
	}
	res, err := mx.Query(x)
	if err != nil {
		t.Fatal(err)
	}
	if res.Index != int(id) || res.Distance != 2 {
		t.Fatalf("planted insert did not win: %+v", res)
	}
	if res.Rounds < 1 || res.Probes <= 1 {
		t.Fatalf("accounting did not aggregate tiers: %+v", res)
	}
	// Delete the winner; the answer must move off the tombstone.
	if ok, _ := mx.Delete(id); !ok {
		t.Fatal("delete failed")
	}
	res2, err := mx.Query(x)
	if err == nil && res2.Index == int(id) {
		t.Fatalf("tombstoned point returned: %+v", res2)
	}
	if mx.Len() != n {
		t.Fatalf("Len = %d, want %d", mx.Len(), n)
	}
}

// queryAll answers the fixed query set, keeping failures as Index -2
// sentinel results so error-ness participates in equality.
func queryAll(s interface {
	Query(anns.Point) (anns.Result, error)
}, qs []anns.Point) []anns.Result {
	out := make([]anns.Result, len(qs))
	for i, q := range qs {
		res, err := s.Query(q)
		if err != nil {
			res.Index = -2
		}
		out[i] = res
	}
	return out
}

// TestMutableSnapshotRoundTrip saves a tier mid-life — base, a sealed
// segment, a live memtable, tombstones — and requires the loaded
// tier to answer byte-identically and to report the same state, with
// Inspect agreeing on the section counts (the format-layer walk and the
// anns codec are written independently; this test pins them together).
func TestMutableSnapshotRoundTrip(t *testing.T) {
	const d, n = 128, 40
	pts := testPoints(t, d, n)
	base, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mx := newMutable(t, base, anns.MutableConfig{MemtableCap: 8})
	r := rng.New(21)
	for i := 0; i < 11; i++ { // one sealed segment + 3 memtable entries
		if _, err := mx.Insert(hamming.Random(r, d)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{2, uint64(n) + 1, uint64(n) + 9} { // base, sealed, memtable
		if ok, err := mx.Delete(id); !ok || err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
	var buf bytes.Buffer
	if err := anns.SaveMutable(&buf, mx); err != nil {
		t.Fatalf("SaveMutable: %v", err)
	}

	info, err := snapshot.Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Inspect: %v", err)
	}
	if info.Kind != snapshot.KindMutable || info.Mutable == nil {
		t.Fatalf("Inspect: %+v", info)
	}
	mi := info.Mutable
	if mi.Base != n || mi.Segments != 1 || mi.RawSegments != 1 ||
		mi.Memtable != 3 || mi.Tombstones != 3 || mi.NextID != uint64(n)+11 {
		t.Fatalf("Inspect mutable summary: %+v", mi)
	}
	if info.N != mx.Len() {
		t.Fatalf("Inspect live N = %d, tier says %d", info.N, mx.Len())
	}

	loaded, err := anns.LoadMutable(bytes.NewReader(buf.Bytes()), anns.MutableConfig{Synchronous: true})
	if err != nil {
		t.Fatalf("LoadMutable: %v", err)
	}
	defer loaded.Close()
	if loaded.Len() != mx.Len() {
		t.Fatalf("loaded Len = %d, want %d", loaded.Len(), mx.Len())
	}
	qs := make([]anns.Point, 30)
	for i := range qs {
		qs[i] = hamming.AtDistance(r, pts[i%n], d, 1+i)
	}
	got, want := queryAll(loaded, qs), queryAll(mx, qs)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("query %d: loaded answers %+v, original %+v", i, got[i], want[i])
		}
	}
	st, lst := mx.MutableStats(), loaded.MutableStats()
	if lst.LiveN != st.LiveN || lst.Sealed != st.Sealed || lst.Memtable != st.Memtable ||
		lst.Tombstones != st.Tombstones || lst.NextID != st.NextID {
		t.Fatalf("loaded stats %+v, original %+v", lst, st)
	}
}

// TestLoadMutableFromKindIndex boots the tier from a plain static
// snapshot (the annsctl build / annsctl compact output).
func TestLoadMutableFromKindIndex(t *testing.T) {
	const d, n = 128, 30
	pts := testPoints(t, d, n)
	base, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := anns.SaveIndex(&buf, base); err != nil {
		t.Fatal(err)
	}
	mx, err := anns.LoadMutable(bytes.NewReader(buf.Bytes()), anns.MutableConfig{Synchronous: true})
	if err != nil {
		t.Fatalf("LoadMutable(KindIndex): %v", err)
	}
	defer mx.Close()
	if mx.Len() != n {
		t.Fatalf("Len = %d, want %d", mx.Len(), n)
	}
	if id, err := mx.Insert(pts[0].Clone()); err != nil || id != uint64(n) {
		t.Fatalf("first insert: id=%d err=%v", id, err)
	}
}

// TestMutableWALReplay pins durability: mutations against a WAL-backed
// tier survive an unclean stop — a reboot over the same base replays the
// log and answers byte-identically to the pre-stop tier.
func TestMutableWALReplay(t *testing.T) {
	const d, n = 128, 30
	walPath := filepath.Join(t.TempDir(), "wal.log")
	pts := testPoints(t, d, n)
	build := func() *anns.Index {
		base, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 2, Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return base
	}
	cfg := anns.MutableConfig{MemtableCap: 8, WALPath: walPath}
	mx := newMutable(t, build(), cfg)
	r := rng.New(31)
	var inserted []anns.Point
	for i := 0; i < 19; i++ { // two seals + 3 in the memtable
		p := hamming.Random(r, d)
		inserted = append(inserted, p)
		if _, err := mx.Insert(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []uint64{5, uint64(n) + 2} {
		if ok, err := mx.Delete(id); !ok || err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
	}
	qs := make([]anns.Point, 25)
	for i := range qs {
		qs[i] = hamming.AtDistance(r, inserted[i%len(inserted)], d, 1+i%10)
	}
	want := queryAll(mx, qs)
	wantLen := mx.Len()
	// No clean shutdown: the WAL alone must carry the state. (Every record
	// was fsynced on append; Close would only close the file handle.)

	rebooted, err := anns.NewMutable(build(), anns.MutableConfig{
		MemtableCap: 8, WALPath: walPath, Synchronous: true,
	})
	if err != nil {
		t.Fatalf("reboot: %v", err)
	}
	defer rebooted.Close()
	st := rebooted.MutableStats()
	if st.WALReplayed != 21 {
		t.Fatalf("WALReplayed = %d, want 21", st.WALReplayed)
	}
	if rebooted.Len() != wantLen {
		t.Fatalf("rebooted Len = %d, want %d", rebooted.Len(), wantLen)
	}
	got := queryAll(rebooted, qs)
	for i := range qs {
		if got[i] != want[i] {
			t.Fatalf("query %d: rebooted answers %+v, original %+v", i, got[i], want[i])
		}
	}
	// A WAL paired with the wrong base must be refused, not misapplied.
	if _, err := anns.NewMutable(nil, anns.MutableConfig{
		Options: anns.Options{Dimension: d}, WALPath: walPath, Synchronous: true,
	}); err == nil {
		t.Fatal("WAL over the wrong base accepted")
	}
}

// TestLoadAnyTypedErrors is the satellite fix's public-API face:
// zero-length and shorter-than-header files surface as the typed
// snapshot.ErrFormat from LoadAny, never a bare io error.
func TestLoadAnyTypedErrors(t *testing.T) {
	for name, raw := range map[string][]byte{
		"zero-length": {},
		"sub-header":  []byte("ANNSSNAP\x02"),
	} {
		if _, _, err := anns.LoadAny(bytes.NewReader(raw)); !errors.Is(err, snapshot.ErrFormat) {
			t.Errorf("LoadAny(%s): got %v, want snapshot.ErrFormat", name, err)
		}
	}
	// A mutable snapshot is typed, too: plain LoadAny names the right tool.
	mx := newMutable(t, nil, anns.MutableConfig{Options: anns.Options{Dimension: 64}})
	if _, err := mx.Insert(make(anns.Point, 1)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := anns.SaveMutable(&buf, mx); err != nil {
		t.Fatal(err)
	}
	_, _, err := anns.LoadAny(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, snapshot.ErrFormat) {
		t.Errorf("LoadAny(mutable) = %v, want ErrFormat", err)
	}
}
