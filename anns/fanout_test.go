package anns

import (
	"errors"
	"testing"

	"repro/internal/hamming"
	"repro/internal/rng"
)

// The differential oracle for fanOut: the per-shard loop written out
// longhand, the way each of the four call sites used to spell it. It is
// sequential on purpose — the fold depends only on shard position, so
// the concurrent helper must agree with it exactly.
func longhandFanOut(n int, global func(shard, local int) int, near bool,
	ask func(s int) (Result, error)) (Result, error) {
	results := make([]Result, n)
	errs := make([]error, n)
	ok := make([]bool, n)
	for s := 0; s < n; s++ {
		results[s], errs[s] = ask(s)
		ok[s] = errs[s] == nil
		if near {
			ok[s] = ok[s] && results[s].Index >= 0
		}
	}
	out := Result{Index: -1, Distance: -1}
	for s, r := range results {
		if r.Rounds > out.Rounds {
			out.Rounds = r.Rounds
		}
		out.Probes += r.Probes
		out.MaxParallel += r.MaxParallel
		if ok[s] && (out.Index < 0 || r.Distance < out.Distance) {
			out.Index, out.Distance = global(s, r.Index), r.Distance
		}
	}
	if out.Index >= 0 {
		return out, nil
	}
	if !near {
		return out, errors.New("anns: query failed on every shard")
	}
	for _, err := range errs {
		if err == nil {
			return out, nil // NO is an answer
		}
	}
	return out, errors.New("anns: near query failed on every shard: " + errs[0].Error())
}

func sameOutcome(t *testing.T, tag string, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if got != want {
		t.Errorf("%s: result %+v, longhand loop says %+v", tag, got, want)
	}
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Errorf("%s: error %v, longhand loop says %v", tag, gotErr, wantErr)
	}
}

// TestFanOutMatchesLonghandLoop holds ShardedIndex and MutableSharded —
// answers and full accounting — to the longhand per-shard loop over a
// fixed seeded corpus, for Query and for QueryNear at a λ that answers
// YES, one that splits the shards, and one every shard answers NO to.
func TestFanOutMatchesLonghandLoop(t *testing.T) {
	const d, n, shards = 256, 96, 4
	r := rng.New(0xFA17)
	db := make([]Point, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	queries := make([]Point, 24)
	for i := range queries {
		queries[i] = hamming.AtDistance(r, db[i*3], d, 4+i)
	}
	opts := Options{Dimension: d, Rounds: 2, Seed: 21}
	sx, err := BuildSharded(append([]Point(nil), db...), shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := BuildMutableSharded(append([]Point(nil), db...), shards, opts,
		MutableConfig{MemtableCap: 8, CompactEvery: 3, Synchronous: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	for i := 0; i < 20; i++ { // push the mutable shards past their bases
		if _, err := ms.Insert(hamming.Random(r, d)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ms.Delete(5); err != nil {
		t.Fatal(err)
	}

	allNO := 0
	for qi, x := range queries {
		got, gerr := sx.Query(x)
		want, werr := longhandFanOut(shards, sx.GlobalIndex, false,
			func(s int) (Result, error) { return sx.Shard(s).Query(x) })
		sameOutcome(t, "ShardedIndex.Query", got, gerr, want, werr)

		got, gerr = ms.Query(x)
		want, werr = longhandFanOut(shards, RoundRobinGlobal(shards), false,
			func(s int) (Result, error) { return ms.Shard(s).Query(x) })
		sameOutcome(t, "MutableSharded.Query", got, gerr, want, werr)

		for _, lambda := range []float64{float64(4 + qi), 2, 0.5} {
			got, gerr = sx.QueryNear(x, lambda)
			want, werr = longhandFanOut(shards, sx.GlobalIndex, true,
				func(s int) (Result, error) { return sx.Shard(s).QueryNear(x, lambda) })
			sameOutcome(t, "ShardedIndex.QueryNear", got, gerr, want, werr)
			if gerr == nil && got.Index < 0 {
				allNO++
			}

			got, gerr = ms.QueryNear(x, lambda)
			want, werr = longhandFanOut(shards, RoundRobinGlobal(shards), true,
				func(s int) (Result, error) { return ms.Shard(s).QueryNear(x, lambda) })
			sameOutcome(t, "MutableSharded.QueryNear", got, gerr, want, werr)
		}
	}
	if allNO == 0 {
		t.Error("no query exercised the all-shards-NO answer; the corpus lost its coverage")
	}
}

// scriptedShard answers a fixed result and error, so the failure rule
// can be driven through shapes a healthy index never produces.
type scriptedShard struct {
	res Result
	err error
}

func (s scriptedShard) Query(Point) (Result, error)              { return s.res, s.err }
func (s scriptedShard) QueryNear(Point, float64) (Result, error) { return s.res, s.err }

// TestFanOutFailureRule pins "NO is an answer, an error is not" against
// the longhand loop: one shard erroring hides only its candidate, every
// shard erroring fails the call, and failed shards are still charged.
func TestFanOutFailureRule(t *testing.T) {
	boom := errors.New("shard down")
	yes := func(local, dist int) scriptedShard {
		return scriptedShard{res: Result{Index: local, Distance: dist, Rounds: 2, Probes: 5, MaxParallel: 3}}
	}
	no := scriptedShard{res: Result{Index: -1, Distance: -1, Rounds: 1, Probes: 1, MaxParallel: 1}}
	down := scriptedShard{res: Result{Index: -1, Distance: -1, Rounds: 1, Probes: 2, MaxParallel: 2}, err: boom}
	cases := map[string][]scriptedShard{
		"all answer":         {yes(3, 9), yes(1, 4), yes(0, 6)},
		"one shard errors":   {yes(3, 9), down, yes(0, 6)},
		"best shard errors":  {down, yes(1, 4), no},
		"all NO":             {no, no, no},
		"NO beside an error": {no, down, no},
		"every shard errors": {down, down, down},
	}
	global := RoundRobinGlobal(3)
	for name, shards := range cases {
		for _, near := range []bool{false, true} {
			got, gerr := fanOut(shards, global, nil, near, 1)
			want, werr := longhandFanOut(len(shards), global, near,
				func(s int) (Result, error) { return shards[s].res, shards[s].err })
			tag := name + " query"
			if near {
				tag = name + " near"
			}
			sameOutcome(t, tag, got, gerr, want, werr)
			if near && name == "every shard errors" && !errors.Is(gerr, boom) {
				t.Errorf("%s: error %v does not wrap the shard's", tag, gerr)
			}
		}
	}
}
