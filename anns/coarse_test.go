package anns

import (
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// coarseSections reports how many section tables of each core body in
// the file carry coarse data (the N_j matrices and the database's coarse
// sketches).
func coarseSections(t *testing.T, path string) []int {
	t.Helper()
	info, err := snapshot.InspectFile(path)
	if err != nil {
		t.Fatalf("inspect %s: %v", path, err)
	}
	out := make([]int, len(info.Cores))
	for i, c := range info.Cores {
		for _, s := range c.Sections {
			if s.Tag == snapshot.SecCoarseMatrix || s.Tag == snapshot.SecCoarseSketch {
				out[i]++
			}
		}
	}
	return out
}

// sameCoreOutcome compares two schemes' full outcome on every query: the
// answer, the degenerate/violation flags and the whole probe accounting.
func sameCoreOutcome(t *testing.T, label string, a, b core.Scheme, queries []Point) {
	t.Helper()
	for i, q := range queries {
		ra, rb := a.Query(q), b.Query(q)
		sa, sb := ra.Stats, rb.Stats
		if ra.Index != rb.Index || ra.Degenerate != rb.Degenerate || ra.Violated != rb.Violated ||
			sa.Rounds != sb.Rounds || sa.Probes != sb.Probes || sa.BitsRead != sb.BitsRead ||
			sa.AddrBitsSent != sb.AddrBitsSent || sa.MaxProbesInRound() != sb.MaxProbesInRound() {
			t.Fatalf("%s: query %d diverged: %+v vs %+v", label, i, ra, rb)
		}
	}
}

// TestSimpleSnapshotWithCoarseSectionsStillLoads pins that files written
// before Simple builds dropped the coarse family — a Simple index whose
// core was built with S = 1, so each body carries sections 3 and 5 —
// still load through both LoadIndex and OpenSnapshot and answer exactly
// as the coarse-free build of the same points and seed does. Only
// Space().NominalLog2Cells differs: it still counts the older file's
// auxiliary tables.
func TestSimpleSnapshotWithCoarseSectionsStillLoads(t *testing.T) {
	const d = 128
	db, queries := loadTestCorpus(t, 96, d, 4242)
	opts := Options{Dimension: d, Rounds: 3, Seed: 77}
	fresh, err := Build(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts = fresh.Options()

	// The older build: the same core parameters, but S left to its
	// default (>= 1), which draws and sketches the coarse family.
	ci := core.BuildIndexParallel(db, d, core.Params{
		Gamma: opts.Gamma, K: opts.Rounds, C1: opts.RowsMultiplier, C2: opts.RowsMultiplier, Seed: opts.Seed,
	}, 1)
	if ci.Fam.Coarse == nil || ci.P.S < 1 {
		t.Fatalf("older build has no coarse family (S = %v)", ci.P.S)
	}
	old := &Index{opts: opts, db: db, scheme: core.NewAlgo1(ci, opts.Rounds), lambda: core.NewLambda(ci), coreIndex: ci}
	oldPath := saveToFile(t, func(f *os.File) error { return SaveIndex(f, old) }, "old.snap")
	freshPath := saveToFile(t, func(f *os.File) error { return SaveIndex(f, fresh) }, "fresh.snap")
	if got := coarseSections(t, oldPath); len(got) != 1 || got[0] != 2 {
		t.Fatalf("older file has coarse sections %v per core, want [2]", got)
	}
	if got := coarseSections(t, freshPath); len(got) != 1 || got[0] != 0 {
		t.Fatalf("a Simple build wrote coarse sections %v per core, want [0]", got)
	}

	f, err := os.Open(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := LoadIndex(f)
	f.Close()
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	sameServing(t, "LoadIndex(old) vs Build", fresh, streamed, queries)
	sameCoreOutcome(t, "LoadIndex(old) vs Build", fresh.scheme, streamed.scheme, queries)
	// The one number that differs: the older file's auxiliary tables
	// exist, so its nominal space counts them until it is rebuilt.
	if o, n := streamed.Space().NominalLog2Cells, fresh.Space().NominalLog2Cells; o <= n {
		t.Errorf("older file's NominalLog2Cells %v not above the coarse-free build's %v", o, n)
	}
	for _, mode := range []LoadMode{LoadHeap, LoadMmap} {
		l, err := OpenSnapshot(oldPath, mode)
		if err != nil {
			t.Fatalf("OpenSnapshot(%v): %v", mode, err)
		}
		sameServing(t, "OpenSnapshot(old, "+mode.String()+") vs Build", fresh, l.Index, queries)
		sameCoreOutcome(t, "OpenSnapshot(old, "+mode.String()+") vs Build", fresh.scheme, l.Index.scheme, queries)
		l.Close()
	}
}

// TestSophisticatedKeepsCoarseFamily pins the other side: Algorithm 2
// reads the coarse family, so a Sophisticated build still draws it,
// writes both coarse sections, and round-trips.
func TestSophisticatedKeepsCoarseFamily(t *testing.T) {
	const d = 128
	db, queries := loadTestCorpus(t, 96, d, 4343)
	ix, err := Build(db, Options{Dimension: d, Rounds: 8, Algorithm: Sophisticated, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	if ix.coreIndex.Fam.Coarse == nil || ix.coreIndex.Tables.Aux == nil {
		t.Fatal("a Sophisticated build has no coarse family")
	}
	path := saveToFile(t, func(f *os.File) error { return SaveIndex(f, ix) }, "soph.snap")
	if got := coarseSections(t, path); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Sophisticated file has coarse sections %v per core, want [2]", got)
	}
	l, err := OpenSnapshot(path, LoadAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sameServing(t, "Sophisticated roundtrip", ix, l.Index, queries)
	sameCoreOutcome(t, "Sophisticated roundtrip", ix.scheme, l.Index.scheme, queries)
}
