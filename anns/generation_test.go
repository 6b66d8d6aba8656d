package anns_test

import (
	"testing"

	"repro/anns"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// TestMutableGeneration pins the invalidation contract the result cache
// depends on: the generation counter advances on every state change that
// can alter a query's folded reply — insert, delete, memtable seal,
// flush, and compaction swap — and never moves
// while the structure is quiescent.
func TestMutableGeneration(t *testing.T) {
	const d = 128
	mx := newMutable(t, nil, anns.MutableConfig{
		Options:     anns.Options{Dimension: d, Rounds: 2, Seed: 5},
		MemtableCap: 4,
	})
	r := rng.New(3)
	if g := mx.Generation(); g != 0 {
		t.Fatalf("fresh tier generation = %d, want 0", g)
	}

	// Insert bumps.
	g0 := mx.Generation()
	if _, err := mx.Insert(hamming.Random(r, d)); err != nil {
		t.Fatal(err)
	}
	g1 := mx.Generation()
	if g1 <= g0 {
		t.Fatalf("insert did not advance generation: %d -> %d", g0, g1)
	}

	// Queries do NOT bump.
	if _, err := mx.Query(hamming.Random(r, d)); err != nil {
		t.Fatal(err)
	}
	if g := mx.Generation(); g != g1 {
		t.Fatalf("query moved generation: %d -> %d", g1, g)
	}

	// Delete bumps.
	if ok, err := mx.Delete(0); !ok || err != nil {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	g2 := mx.Generation()
	if g2 <= g1 {
		t.Fatalf("delete did not advance generation: %d -> %d", g1, g2)
	}

	// Filling the memtable to MemtableCap seals it: the generation must
	// advance past the pure per-insert bumps — the seal counts once.
	for i := 0; i < 4; i++ {
		if _, err := mx.Insert(hamming.Random(r, d)); err != nil {
			t.Fatal(err)
		}
	}
	g3 := mx.Generation()
	if g3 != g2+4+1 {
		t.Fatalf("four inserts and one seal moved generation %d -> %d, want %d", g2, g3, g2+4+1)
	}

	// Flush of a non-empty memtable bumps.
	if _, err := mx.Insert(hamming.Random(r, d)); err != nil {
		t.Fatal(err)
	}
	g4 := mx.Generation()
	mx.Flush()
	g5 := mx.Generation()
	if g5 <= g4 {
		t.Fatalf("flush did not advance generation: %d -> %d", g4, g5)
	}
	mx.Flush() // empty memtable: no-op, no bump
	if g := mx.Generation(); g != g5 {
		t.Fatalf("empty flush moved generation: %d -> %d", g5, g)
	}

	// Compaction swap bumps.
	if err := mx.Compact(); err != nil {
		t.Fatal(err)
	}
	g6 := mx.Generation()
	if g6 <= g5 {
		t.Fatalf("compaction did not advance generation: %d -> %d", g5, g6)
	}

	// The stats block mirrors the counter.
	if st := mx.MutableStats(); st.Generation != g6 {
		t.Fatalf("MutableStats.Generation = %d, want %d", st.Generation, g6)
	}

	// Deleting a dead ID is a no-op and must not bump.
	if ok, err := mx.Delete(0); ok || err != nil {
		t.Fatalf("re-delete: ok=%v err=%v", ok, err)
	}
	if g := mx.Generation(); g != g6 {
		t.Fatalf("no-op delete moved generation: %d -> %d", g6, g)
	}
}
