package anns

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/snapshot"
)

// loadTestCorpus builds a fixed-seed database and 1000 query points, half
// planted near database points, half uniform.
func loadTestCorpus(t testing.TB, n, d int, seed uint64) ([]Point, []Point) {
	t.Helper()
	r := rng.New(seed)
	db := make([]Point, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	queries := make([]Point, 1000)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = hamming.AtDistance(r, db[i%n], d, 1+i%(d/4))
		} else {
			queries[i] = hamming.Random(r, d)
		}
	}
	return db, queries
}

func saveToFile(t testing.TB, save func(f *os.File) error, name string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// sameLoadedResult pins the full per-query outcome — answer and
// cell-probe accounting — across load paths.
func sameLoadedResult(t *testing.T, label string, i int, a, b Result) {
	t.Helper()
	if a != b {
		t.Fatalf("%s: query %d diverged:\n heap: %+v\n mmap: %+v", label, i, a, b)
	}
}

// TestOpenSnapshotEquivalence is the acceptance gate for the zero-copy
// path: 1000 fixed-seed queries must answer byte-identically (results,
// Rounds, Probes) between a heap-loaded and an mmap-loaded index, for the
// single, boosted, and sharded kinds.
func TestOpenSnapshotEquivalence(t *testing.T) {
	db, queries := loadTestCorpus(t, 96, 128, 1234)
	cases := []struct {
		name  string
		save  func(f *os.File) error
		check func(t *testing.T, heap, mmap *Loaded)
	}{
		{
			name: "single",
			save: func(f *os.File) error {
				ix, err := Build(db, Options{Dimension: 128, Rounds: 2, Seed: 9})
				if err != nil {
					return err
				}
				return SaveIndex(f, ix)
			},
			check: func(t *testing.T, heap, mmap *Loaded) {
				for i, q := range queries {
					rh, errh := heap.Index.Query(q)
					rm, errm := mmap.Index.Query(q)
					if (errh == nil) != (errm == nil) {
						t.Fatalf("query %d: error mismatch: %v vs %v", i, errh, errm)
					}
					sameLoadedResult(t, "single", i, rh, rm)
				}
			},
		},
		{
			name: "boosted",
			save: func(f *os.File) error {
				ix, err := Build(db, Options{Dimension: 128, Rounds: 2, Repetitions: 3, Seed: 10})
				if err != nil {
					return err
				}
				return SaveIndex(f, ix)
			},
			check: func(t *testing.T, heap, mmap *Loaded) {
				for i, q := range queries {
					rh, _ := heap.Index.Query(q)
					rm, _ := mmap.Index.Query(q)
					sameLoadedResult(t, "boosted", i, rh, rm)
				}
			},
		},
		{
			name: "sharded",
			save: func(f *os.File) error {
				sx, err := BuildSharded(db, 3, Options{Dimension: 128, Rounds: 2, Seed: 11})
				if err != nil {
					return err
				}
				return SaveSharded(f, sx)
			},
			check: func(t *testing.T, heap, mmap *Loaded) {
				for i, q := range queries {
					rh, _ := heap.Sharded.Query(q)
					rm, _ := mmap.Sharded.Query(q)
					sameLoadedResult(t, "sharded", i, rh, rm)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := saveToFile(t, tc.save, tc.name+".snap")
			heap, err := OpenSnapshot(path, LoadHeap)
			if err != nil {
				t.Fatalf("heap open: %v", err)
			}
			defer heap.Close()
			mm, err := OpenSnapshot(path, LoadMmap)
			if err != nil {
				if errors.Is(err, snapshot.ErrMmapUnavailable) {
					t.Skip("mmap unavailable on this platform")
				}
				t.Fatalf("mmap open: %v", err)
			}
			defer mm.Close()
			if heap.Source != "heap" || mm.Source != "mmap" {
				t.Fatalf("sources = %q / %q", heap.Source, mm.Source)
			}
			if mm.MappedBytes <= 0 {
				t.Fatalf("MappedBytes = %d", mm.MappedBytes)
			}
			if err := mm.VerifyChecksum(); err != nil {
				t.Fatalf("VerifyChecksum: %v", err)
			}
			tc.check(t, heap, mm)
		})
	}
}

// TestOpenSnapshotAutoFallback forces MapFile to fail: LoadAuto must land
// on the heap decoder with a typed reason rather than failing, and
// LoadMmap must surface the typed error.
func TestOpenSnapshotAutoFallback(t *testing.T) {
	db, queries := loadTestCorpus(t, 48, 96, 77)
	path := saveToFile(t, func(f *os.File) error {
		ix, err := Build(db, Options{Dimension: 96, Rounds: 2, Seed: 5})
		if err != nil {
			return err
		}
		return SaveIndex(f, ix)
	}, "auto.snap")

	snapshot.SetMmapUnavailableForTest(true)
	defer snapshot.SetMmapUnavailableForTest(false)

	l, err := OpenSnapshot(path, LoadAuto)
	if err != nil {
		t.Fatalf("LoadAuto with mmap unavailable: %v", err)
	}
	defer l.Close()
	if l.Source != "heap" {
		t.Fatalf("Source = %q, want heap", l.Source)
	}
	if l.FallbackReason == "" {
		t.Fatal("fallback left no reason")
	}
	if l.MappedBytes != 0 {
		t.Fatalf("MappedBytes = %d on the heap path", l.MappedBytes)
	}
	if _, err := l.Index.Query(queries[0]); err != nil {
		t.Fatalf("fallback index does not serve: %v", err)
	}

	if _, err := OpenSnapshot(path, LoadMmap); !errors.Is(err, snapshot.ErrMmapUnavailable) {
		t.Fatalf("LoadMmap error = %v, want ErrMmapUnavailable", err)
	}
}

// TestOpenSnapshotAutoPrefersMmap pins that auto mode takes the zero-copy
// path when nothing is in the way.
func TestOpenSnapshotAutoPrefersMmap(t *testing.T) {
	db, _ := loadTestCorpus(t, 48, 96, 78)
	path := saveToFile(t, func(f *os.File) error {
		ix, err := Build(db, Options{Dimension: 96, Rounds: 2, Seed: 6})
		if err != nil {
			return err
		}
		return SaveIndex(f, ix)
	}, "auto2.snap")
	l, err := OpenSnapshot(path, LoadAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Source != "mmap" && l.FallbackReason == "" {
		t.Fatalf("auto mode took %q with no recorded reason", l.Source)
	}
}

// TestOpenSnapshotRejectsCorruptionOnBothPaths: decode errors are not
// fallback cases — a structurally corrupt file fails under LoadAuto too.
func TestOpenSnapshotRejectsCorruption(t *testing.T) {
	db, _ := loadTestCorpus(t, 48, 96, 79)
	path := saveToFile(t, func(f *os.File) error {
		ix, err := Build(db, Options{Dimension: 96, Rounds: 2, Seed: 7})
		if err != nil {
			return err
		}
		return SaveIndex(f, ix)
	}, "corrupt.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The envelope dimension u64 sits at bytes 16..24; blowing its high
	// byte past maxDim trips structural validation on both decode paths
	// (payload-only corruption is deliberately left to VerifyChecksum on
	// the mmap path — see snapshot.ByteDecoder).
	raw[23] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LoadMode{LoadAuto, LoadHeap, LoadMmap} {
		if _, err := OpenSnapshot(path, mode); err == nil {
			t.Fatalf("mode %v opened a corrupt snapshot", mode)
		}
	}
}

// TestOpenSnapshotMutableRejected points mutable snapshots at their own
// loader on every mode.
func TestOpenSnapshotMutableRejected(t *testing.T) {
	mx, err := NewMutable(nil, MutableConfig{Options: Options{Dimension: 96, Rounds: 2, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	for i := 0; i < 8; i++ {
		if _, err := mx.Insert(hamming.Random(r, 96)); err != nil {
			t.Fatal(err)
		}
	}
	path := saveToFile(t, func(f *os.File) error { return SaveMutable(f, mx) }, "mut.snap")
	for _, mode := range []LoadMode{LoadAuto, LoadHeap, LoadMmap} {
		if _, err := OpenSnapshot(path, mode); err == nil {
			t.Fatalf("mode %v opened a mutable snapshot via OpenSnapshot", mode)
		}
	}
}
