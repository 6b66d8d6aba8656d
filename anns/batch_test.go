package anns_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/anns"
	"repro/internal/hamming"
	"repro/internal/rng"
)

func TestBatchQueryMatchesSequential(t *testing.T) {
	d := 512
	pts := testPoints(t, d, 100)
	idx, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7000)
	queries := make([]anns.Point, 24)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, pts[i], d, 18)
	}
	batch := idx.BatchQuery(queries, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch size %d", len(batch))
	}
	for i, q := range queries {
		seq, seqErr := idx.Query(q)
		if (seqErr == nil) != (batch[i].Err == nil) {
			t.Fatalf("query %d: error mismatch %v vs %v", i, seqErr, batch[i].Err)
		}
		if seqErr == nil && (seq.Index != batch[i].Index || seq.Probes != batch[i].Probes) {
			t.Fatalf("query %d: batch (%d, %d probes) vs sequential (%d, %d probes)",
				i, batch[i].Index, batch[i].Probes, seq.Index, seq.Probes)
		}
	}
}

// TestBatchQueryPrimedFullIdentity pins the primed batch path (the
// default Algorithm 1 scheme takes it) to the sequential path on every
// Result field, at a batch size that is not a multiple of the priming
// chunk, across two consecutive batches so pooled worker state is reused.
func TestBatchQueryPrimedFullIdentity(t *testing.T) {
	d := 256
	pts := testPoints(t, d, 80)
	idx, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7300)
	for round := 0; round < 2; round++ {
		queries := make([]anns.Point, 21)
		for i := range queries {
			if i%2 == 0 {
				queries[i] = hamming.AtDistance(r, pts[(i+round)%len(pts)], d, 4+i)
			} else {
				queries[i] = hamming.Random(r, d)
			}
		}
		batch := idx.BatchQuery(queries, 3)
		for i, q := range queries {
			seq, seqErr := idx.Query(q)
			if (seqErr == nil) != (batch[i].Err == nil) {
				t.Fatalf("round %d query %d: error mismatch %v vs %v", round, i, seqErr, batch[i].Err)
			}
			if seq != batch[i].Result {
				t.Fatalf("round %d query %d:\n batch: %+v\n   seq: %+v", round, i, batch[i].Result, seq)
			}
		}
	}
}

func TestBatchQueryWorkerCounts(t *testing.T) {
	d := 256
	pts := testPoints(t, d, 50)
	idx, err := anns.Build(pts, anns.Options{Dimension: d, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7100)
	queries := make([]anns.Point, 9)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, pts[i], d, 10)
	}
	for _, workers := range []int{-1, 0, 1, 3, 100} {
		out := idx.BatchQuery(queries, workers)
		if len(out) != len(queries) {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
	}
	if out := idx.BatchQuery(nil, 4); len(out) != 0 {
		t.Error("empty batch nonempty result")
	}
}

func TestBatchQueryNear(t *testing.T) {
	d := 512
	pts := testPoints(t, d, 100)
	idx, err := anns.Build(pts, anns.Options{Dimension: d, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7200)
	queries := make([]anns.Point, 16)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = hamming.AtDistance(r, pts[i], d, 6)
		} else {
			queries[i] = hamming.Random(r, d)
		}
	}
	out := idx.BatchQueryNear(queries, 6, 4)
	for i, res := range out {
		if res.Err != nil {
			t.Fatalf("query %d: %v", i, res.Err)
		}
		if res.Probes != 1 {
			t.Fatalf("query %d used %d probes", i, res.Probes)
		}
	}
}

// TestBatchQueryRace is meaningful under -race: many workers share the
// same lazy table oracles.
func TestBatchQueryRace(t *testing.T) {
	d := 256
	pts := testPoints(t, d, 60)
	idx, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7300)
	queries := make([]anns.Point, 64)
	for i := range queries {
		queries[i] = hamming.Random(r, d)
	}
	idx.BatchQuery(queries, 8)
}

func TestBatchQueryContextCancelled(t *testing.T) {
	d := 256
	pts := testPoints(t, d, 40)
	idx, err := anns.Build(pts, anns.Options{Dimension: d, Rounds: 2, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7400)
	queries := make([]anns.Point, 32)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, pts[i%len(pts)], d, 10)
	}

	// Already-cancelled context: nothing may run; every slot carries the
	// context error and the no-answer sentinel.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := idx.BatchQueryContext(ctx, queries, 4)
	if len(out) != len(queries) {
		t.Fatalf("%d results", len(out))
	}
	for i, b := range out {
		if !errors.Is(b.Err, context.Canceled) {
			t.Fatalf("entry %d: err = %v, want context.Canceled", i, b.Err)
		}
		if b.Index != -1 || b.Distance != -1 {
			t.Fatalf("entry %d: cancelled slot carries answer (%d, %d)", i, b.Index, b.Distance)
		}
	}

	// Background context: wrapper and context variant agree.
	got := idx.BatchQueryContext(context.Background(), queries[:8], 2)
	want := idx.BatchQuery(queries[:8], 2)
	for i := range got {
		if (got[i].Err == nil) != (want[i].Err == nil) || got[i].Index != want[i].Index {
			t.Fatalf("entry %d: context variant (%d, %v) vs wrapper (%d, %v)",
				i, got[i].Index, got[i].Err, want[i].Index, want[i].Err)
		}
	}
}

func TestBatchQueryNearContextDeadline(t *testing.T) {
	d := 256
	pts := testPoints(t, d, 40)
	idx, err := anns.Build(pts, anns.Options{Dimension: d, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7500)
	queries := make([]anns.Point, 16)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, pts[i], d, 5)
	}
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	out := idx.BatchQueryNearContext(ctx, queries, 4, 4)
	for i, b := range out {
		if !errors.Is(b.Err, context.DeadlineExceeded) {
			t.Fatalf("entry %d: err = %v, want deadline exceeded", i, b.Err)
		}
	}
}

// TestBatchQueryConcurrentWithQueries is meaningful under -race: two
// round-synchronous batches and a stream of single queries share one
// index's oracles, memos and scratch pools, over overlapping points. Every
// answer must be the one a twin index gives the query on its own, and the
// cells materialised the ones the twin's sequential runs materialise.
func TestBatchQueryConcurrentWithQueries(t *testing.T) {
	d := 256
	pts := testPoints(t, d, 90)
	opts := anns.Options{Dimension: d, Rounds: 3, Seed: 17}
	idx, err := anns.Build(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := anns.Build(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7600)
	queries := make([]anns.Point, 44)
	for i := range queries {
		switch i % 3 {
		case 0:
			queries[i] = hamming.AtDistance(r, pts[i], d, 6+i)
		case 1:
			queries[i] = hamming.Random(r, d)
		default:
			queries[i] = pts[i] // a database point: leaves its chunk in round 1
		}
	}
	var wg sync.WaitGroup
	batches := [2][]anns.BatchResult{}
	for b := range batches {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			batches[b] = idx.BatchQuery(queries[b*12:b*12+32], 2) // the two overlap on 20 points
		}(b)
	}
	singles := make([]anns.Result, len(queries))
	singleErrs := make([]error, len(queries))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, q := range queries {
			singles[i], singleErrs[i] = idx.Query(q)
		}
	}()
	wg.Wait()
	for i, q := range queries {
		want, wantErr := twin.Query(q)
		if singles[i] != want || (singleErrs[i] == nil) != (wantErr == nil) {
			t.Fatalf("query %d alone: %+v (%v), twin says %+v (%v)", i, singles[i], singleErrs[i], want, wantErr)
		}
		for b := range batches {
			if j := i - b*12; j >= 0 && j < 32 {
				if got := batches[b][j]; got.Result != want || (got.Err == nil) != (wantErr == nil) {
					t.Fatalf("query %d in batch %d: %+v (%v), twin says %+v (%v)", i, b, got.Result, got.Err, want, wantErr)
				}
			}
		}
	}
	if got, want := idx.Space().MaterializedCells, twin.Space().MaterializedCells; got != want {
		t.Fatalf("concurrent batches and queries materialised %d cells, the sequential twin %d", got, want)
	}
}
