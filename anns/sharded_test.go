package anns

import (
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
	"repro/internal/workload"
)

func shardedTestInstance(t *testing.T) *workload.Instance {
	t.Helper()
	r := rng.New(77)
	return workload.PlantedNN(r, 256, 96, 24, 10)
}

func TestBuildShardedValidation(t *testing.T) {
	r := rng.New(5)
	pts := make([]Point, 6)
	for i := range pts {
		pts[i] = hamming.Random(r, 128)
	}
	if _, err := BuildSharded(pts, 0, Options{Dimension: 128}); err == nil {
		t.Error("accepted 0 shards")
	}
	if _, err := BuildSharded(pts, 4, Options{Dimension: 128}); err == nil {
		t.Error("accepted 6 points over 4 shards (needs 8)")
	}
	if _, err := BuildSharded(pts, 3, Options{}); err == nil {
		t.Error("accepted missing dimension")
	}
	sx, err := BuildSharded(pts, 3, Options{Dimension: 128, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sx.Shards() != 3 || sx.Len() != 6 {
		t.Errorf("Shards=%d Len=%d", sx.Shards(), sx.Len())
	}
}

func TestSplitSeedDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for _, seed := range []uint64{0, 1, 2} {
		for s := 0; s < 16; s++ {
			v := splitSeed(seed, s)
			if seen[v] {
				t.Fatalf("splitSeed collision at seed=%d shard=%d", seed, s)
			}
			seen[v] = true
		}
	}
}

// TestShardedMergeAccounting pins the aggregation rule down exactly:
// rounds = max, probes = sum, max parallel = sum, answer = closest
// successful shard mapped back to its global index.
func TestShardedMergeAccounting(t *testing.T) {
	sx := &ShardedIndex{
		global: [][]uint64{{0, 3, 6}, {1, 4, 7}, {2, 5, 8}},
	}
	results := []Result{
		{Index: 2, Distance: 9, Rounds: 2, Probes: 10, MaxParallel: 5},
		{Index: 0, Distance: 4, Rounds: 3, Probes: 7, MaxParallel: 4},
		{Index: 1, Distance: 6, Rounds: 1, Probes: 20, MaxParallel: 20},
	}
	merge := func(ok ...bool) Result {
		replies := make([]ShardReply, len(results))
		for s, r := range results {
			replies[s] = ShardReply{Result: r, OK: ok[s]}
		}
		return MergeShardReplies(replies, sx.GlobalIndex)
	}
	out := merge(true, true, true)
	if out.Rounds != 3 {
		t.Errorf("rounds = %d, want max 3", out.Rounds)
	}
	if out.Probes != 37 {
		t.Errorf("probes = %d, want sum 37", out.Probes)
	}
	if out.MaxParallel != 29 {
		t.Errorf("max parallel = %d, want sum 29", out.MaxParallel)
	}
	if out.Index != 1 || out.Distance != 4 {
		t.Errorf("answer = (%d, %d), want global index 1 at distance 4", out.Index, out.Distance)
	}

	// A failed shard contributes accounting but never the answer.
	out = merge(false, false, true)
	if out.Index != 5 || out.Distance != 6 {
		t.Errorf("answer = (%d, %d), want global index 5 at distance 6", out.Index, out.Distance)
	}
	if out.Probes != 37 {
		t.Errorf("failed shards must still be charged: probes = %d, want 37", out.Probes)
	}

	// All shards failed: no answer, full charge.
	out = merge(false, false, false)
	if out.Index != -1 || out.Distance != -1 {
		t.Errorf("want no answer, got (%d, %d)", out.Index, out.Distance)
	}
}

// TestShardedVsSingleAndExact checks merge correctness end to end: the
// sharded answer must be a real database point at its claimed distance,
// never beat the exact scan, stay within the round budget, and achieve
// γ-approximate recall comparable to a single unsharded index.
func TestShardedVsSingleAndExact(t *testing.T) {
	inst := shardedTestInstance(t)
	const gamma, k, shards = 2.0, 3, 4
	opts := Options{Dimension: inst.D, Gamma: gamma, Rounds: k, Seed: 9}

	pts := make([]Point, len(inst.DB))
	copy(pts, inst.DB)
	sx, err := BuildSharded(pts, shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Build(pts, opts)
	if err != nil {
		t.Fatal(err)
	}
	exact := baseline.NewLinearScan(inst.DB)

	shardedGood, singleGood := 0, 0
	for qi, q := range inst.Queries {
		_, exactStats := exact.Query(q.X)
		if exactStats.Probes != len(inst.DB) {
			t.Fatalf("exact scan accounting broke: %d probes", exactStats.Probes)
		}
		res, err := sx.Query(q.X)
		if err == nil {
			if res.Index < 0 || res.Index >= len(inst.DB) {
				t.Fatalf("query %d: global index %d out of range", qi, res.Index)
			}
			if got := bitvec.Distance(pts[res.Index], q.X); got != res.Distance {
				t.Fatalf("query %d: claimed distance %d but point %d is at %d",
					qi, res.Distance, res.Index, got)
			}
			if res.Distance < q.NNDist {
				t.Fatalf("query %d: sharded distance %d beats exact NN %d", qi, res.Distance, q.NNDist)
			}
			if res.Rounds > k {
				t.Fatalf("query %d: %d rounds exceeds budget k=%d", qi, res.Rounds, k)
			}
			if res.MaxParallel*res.Rounds < res.Probes {
				t.Fatalf("query %d: accounting inconsistent: maxpar=%d rounds=%d probes=%d",
					qi, res.MaxParallel, res.Rounds, res.Probes)
			}
			if float64(res.Distance) <= gamma*float64(q.NNDist) {
				shardedGood++
			}
		}
		if r2, err := single.Query(q.X); err == nil &&
			float64(r2.Distance) <= gamma*float64(q.NNDist) {
			singleGood++
		}
	}
	nq := len(inst.Queries)
	if shardedGood < nq*3/4 {
		t.Errorf("sharded recall %d/%d below 75%%", shardedGood, nq)
	}
	// Sharding must not collapse answer quality relative to one index.
	if shardedGood < singleGood-nq/4 {
		t.Errorf("sharded recall %d/%d far below single-index %d/%d",
			shardedGood, nq, singleGood, nq)
	}
}

func TestShardedQueryNear(t *testing.T) {
	r := rng.New(123)
	inst := workload.Annulus(r, 256, 80, 20, 8, 2)
	pts := make([]Point, len(inst.DB))
	copy(pts, inst.DB)
	sx, err := BuildSharded(pts, 4, Options{Dimension: inst.D, Gamma: 2, Rounds: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	agree := 0
	for _, q := range inst.Queries {
		res, err := sx.QueryNear(q.X, 8)
		if err != nil {
			continue
		}
		if res.Rounds != 1 {
			t.Fatalf("near query used %d rounds, want 1 per shard (max)", res.Rounds)
		}
		isYes := q.NNDist <= 8
		if (res.Index >= 0) == isYes {
			agree++
		}
	}
	if agree < len(inst.Queries)*3/4 {
		t.Errorf("near decision agreed on %d/%d", agree, len(inst.Queries))
	}
}

func TestShardedSpaceRollup(t *testing.T) {
	inst := shardedTestInstance(t)
	pts := make([]Point, len(inst.DB))
	copy(pts, inst.DB)
	sx, err := BuildSharded(pts, 4, Options{Dimension: inst.D, Rounds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Materialize some cells.
	for _, q := range inst.Queries[:4] {
		sx.Query(q.X)
	}
	per := sx.ShardSpaces()
	if len(per) != 4 {
		t.Fatalf("ShardSpaces len %d", len(per))
	}
	total := sx.Space()
	sum, maxLog := 0, 0.0
	for _, sp := range per {
		sum += sp.MaterializedCells
		if sp.NominalLog2Cells > maxLog {
			maxLog = sp.NominalLog2Cells
		}
	}
	if total.MaterializedCells != sum {
		t.Errorf("materialized rollup %d, want sum %d", total.MaterializedCells, sum)
	}
	if total.NominalLog2Cells < maxLog || total.NominalLog2Cells > maxLog+2+1e-9 {
		t.Errorf("nominal log rollup %.2f outside [max=%.2f, max+log2(4)]", total.NominalLog2Cells, maxLog)
	}
}

func TestShardedBatchQueryContext(t *testing.T) {
	inst := shardedTestInstance(t)
	pts := make([]Point, len(inst.DB))
	copy(pts, inst.DB)
	sx, err := BuildSharded(pts, 2, Options{Dimension: inst.D, Rounds: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]Point, len(inst.Queries))
	for i, q := range inst.Queries {
		xs[i] = q.X
	}

	out := sx.BatchQuery(xs, 4)
	if len(out) != len(xs) {
		t.Fatalf("batch len %d", len(out))
	}
	okBatch := 0
	for _, b := range out {
		if b.Err == nil {
			okBatch++
		}
	}
	if okBatch == 0 {
		t.Fatal("every batched sharded query failed")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out = sx.BatchQueryContext(ctx, xs, 4)
	for i, b := range out {
		if b.Err == nil {
			t.Fatalf("entry %d ran despite cancelled context", i)
		}
	}
}
