package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hamming"
	"repro/internal/rng"
)

// buildTestIndex creates a small index over a random database with one
// point planted near a reference query.
func buildTestIndex(t *testing.T, d, n int, p Params) (*Index, []bitvec.Vector) {
	t.Helper()
	r := rng.New(100)
	db := make([]bitvec.Vector, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	return BuildIndex(db, d, p), db
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}.withDefaults()
	if p.Gamma != 2 || p.CExp != 3 || p.K != 2 {
		t.Errorf("defaults: %+v", p)
	}
	if p.S < 1 {
		t.Errorf("defaulted S = %v below clamp", p.S)
	}
	// Large K gives the formula value (1/4 − 1/(2c))k − 1/4.
	q := Params{K: 60, CExp: 3}.withDefaults()
	want := (0.25-1.0/6.0)*60 - 0.25
	if math.Abs(q.S-want) > 1e-9 {
		t.Errorf("S = %v, want %v", q.S, want)
	}
}

func TestBuildIndexPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty database did not panic")
		}
	}()
	BuildIndex(nil, 16, Params{})
}

func TestAlgo1TauCondition(t *testing.T) {
	// τ must satisfy τ·(τ/2)^{k−1} ≥ levels and be minimal.
	for _, levels := range []int{5, 20, 40, 100} {
		for k := 2; k <= 8; k++ {
			tau := algo1Tau(levels, k)
			check := func(tt int) float64 {
				prod := float64(tt)
				for i := 1; i < k; i++ {
					prod *= float64(tt) / 2
				}
				return prod
			}
			if check(tau) < float64(levels) {
				t.Errorf("levels=%d k=%d: tau=%d too small", levels, k, tau)
			}
			if tau > 2 && check(tau-1) >= float64(levels) {
				t.Errorf("levels=%d k=%d: tau=%d not minimal", levels, k, tau)
			}
		}
	}
	if got := algo1Tau(30, 1); got != 31 {
		t.Errorf("k=1 tau = %d, want levels+1", got)
	}
}

func TestAlgo1RespectsRoundBudget(t *testing.T) {
	idx, _ := buildTestIndex(t, 512, 100, Params{Gamma: 2, Seed: 1})
	r := rng.New(5)
	for k := 1; k <= 6; k++ {
		a := NewAlgo1(idx, k)
		for trial := 0; trial < 10; trial++ {
			x := hamming.AtDistance(r, idx.DB[trial], 512, 5+trial*10)
			res := a.Query(x)
			if res.Stats.Rounds > k {
				t.Fatalf("k=%d: %d rounds", k, res.Stats.Rounds)
			}
			if res.Stats.Probes > a.ProbeBound() {
				t.Fatalf("k=%d: %d probes > bound %d", k, res.Stats.Probes, a.ProbeBound())
			}
		}
	}
}

func TestAlgo1PerRoundParallelism(t *testing.T) {
	// Every round issues at most τ+2 parallel probes (τ−1 grid + 2
	// degenerate in round one; ≤ τ in the completion round).
	idx, _ := buildTestIndex(t, 1024, 120, Params{Gamma: 2, Seed: 2})
	r := rng.New(6)
	for _, k := range []int{2, 3, 4} {
		a := NewAlgo1(idx, k)
		for trial := 0; trial < 8; trial++ {
			x := hamming.AtDistance(r, idx.DB[trial], 1024, 30)
			res := a.Query(x)
			if m := res.Stats.MaxProbesInRound(); m > a.Tau()+2 {
				t.Errorf("k=%d: round with %d probes, tau=%d", k, m, a.Tau())
			}
		}
	}
}

func TestAlgo1DegenerateExactMember(t *testing.T) {
	idx, db := buildTestIndex(t, 256, 60, Params{Gamma: 2, Seed: 3})
	a := NewAlgo1(idx, 3)
	res := a.Query(db[11])
	if res.Failed() {
		t.Fatalf("member query failed: %v", res.Err)
	}
	if !res.Degenerate {
		t.Error("member query not answered by degenerate probe")
	}
	if !bitvec.Equal(db[res.Index], db[11]) {
		t.Error("member query returned wrong point")
	}
	if res.Stats.Rounds != 1 {
		t.Errorf("member query used %d rounds", res.Stats.Rounds)
	}
}

func TestAlgo1DegenerateDistanceOne(t *testing.T) {
	idx, db := buildTestIndex(t, 256, 60, Params{Gamma: 2, Seed: 4})
	a := NewAlgo1(idx, 2)
	x := db[5].Clone()
	x.Flip(123)
	res := a.Query(x)
	if res.Failed() || !res.Degenerate {
		t.Fatalf("distance-1 query: %+v", res)
	}
	if d := bitvec.Distance(db[res.Index], x); d > 1 {
		t.Errorf("degenerate answer at distance %d", d)
	}
}

func TestAlgo1AnswerIsFirstNonemptyLevel(t *testing.T) {
	// Post-hoc invariant: the returned point must belong to a level i with
	// C_{i-1} empty... verified indirectly: its distance is within
	// γ·(exact NN distance) whenever no violation was flagged.
	idx, db := buildTestIndex(t, 512, 100, Params{Gamma: 2, Seed: 5})
	r := rng.New(7)
	a := NewAlgo1(idx, 3)
	okCount, total := 0, 0
	for trial := 0; trial < 25; trial++ {
		x := hamming.AtDistance(r, db[trial%len(db)], 512, 10+3*trial)
		res := a.Query(x)
		if res.Failed() || res.Violated {
			continue
		}
		total++
		if hamming.IsApproxNearest(db, x, db[res.Index], 2) {
			okCount++
		}
	}
	if total == 0 {
		t.Fatal("no clean queries")
	}
	if okCount < total*3/4 {
		t.Errorf("only %d/%d clean queries gamma-approximate", okCount, total)
	}
}

func TestShrinkGrid(t *testing.T) {
	grid := appendShrinkGrid(nil, 0, 100, 5)
	want := []int{20, 40, 60, 80}
	if len(grid) != len(want) {
		t.Fatalf("grid %v", grid)
	}
	for i := range want {
		if grid[i] != want[i] {
			t.Fatalf("grid %v, want %v", grid, want)
		}
	}
	// Strictly increasing when u−l ≥ τ.
	grid = appendShrinkGrid(grid[:0], 3, 11, 8)
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid not increasing: %v", grid)
		}
	}
}

func TestAlgo2Guards(t *testing.T) {
	idx, _ := buildTestIndex(t, 256, 60, Params{Gamma: 2, K: 4, Seed: 6})
	defer func() {
		if recover() == nil {
			t.Fatal("Algo2 with k=1 did not panic")
		}
	}()
	NewAlgo2(idx, 1)
}

func TestAlgo2NeedsCoarseFamily(t *testing.T) {
	// S defaults to >= 1 via withDefaults; NoCoarseFamily builds without.
	r := rng.New(8)
	db := make([]bitvec.Vector, 40)
	for i := range db {
		db[i] = hamming.Random(r, 256)
	}
	famOnly := BuildIndex(db, 256, Params{Gamma: 2, S: NoCoarseFamily, Seed: 1})
	if famOnly.Fam.Coarse != nil || famOnly.Tables.Aux != nil {
		t.Fatal("S = NoCoarseFamily still built a coarse family")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "has none") || !strings.Contains(msg, "built for Algorithm 1") {
			t.Fatalf("Algo2 without coarse family panicked with %q, want the missing family and its cause named", msg)
		}
	}()
	NewAlgo2(famOnly, 4)
}

func TestAlgo2RespectsRoundBudget(t *testing.T) {
	idx, db := buildTestIndex(t, 1024, 120, Params{Gamma: 2, K: 8, Seed: 9})
	r := rng.New(10)
	a := NewAlgo2(idx, 8)
	for trial := 0; trial < 10; trial++ {
		x := hamming.AtDistance(r, db[trial], 1024, 25)
		res := a.Query(x)
		if res.Stats.Rounds > 8 {
			t.Fatalf("%d rounds used", res.Stats.Rounds)
		}
	}
}

func TestAlgo2Tau(t *testing.T) {
	// Exponent with derived s equals k/c; τ must satisfy
	// (τ/2)^{exp} ≥ ⌈L/k⌉.
	for _, k := range []int{8, 16, 32} {
		s := (0.25-1.0/6.0)*float64(k) - 0.25
		if s < 1 {
			s = 1
		}
		tau := algo2Tau(40, k, s)
		exp := (float64(k)-1)/2 - 2*s
		if exp < 1 {
			exp = 1
		}
		if math.Pow(float64(tau)/2, exp) < math.Ceil(40.0/float64(k))-1e-9 {
			t.Errorf("k=%d: tau=%d violates phase-count condition", k, tau)
		}
	}
}

func TestQueryCtxReuseAcrossSchemes(t *testing.T) {
	// One context must serve different schemes and indexes back to back
	// (the serving layers hold one per worker) with identical results.
	idxA, db := buildTestIndex(t, 512, 60, Params{Gamma: 2, Seed: 21})
	idxB, _ := buildTestIndex(t, 512, 60, Params{Gamma: 2, K: 4, Seed: 22})
	a1 := NewAlgo1(idxA, 2)
	a2 := NewAlgo2(idxB, 4)
	c := NewQueryCtx()
	r := rng.New(23)
	for trial := 0; trial < 10; trial++ {
		x := hamming.AtDistance(r, db[trial], 512, 15)
		gotA := a1.QueryWithCtx(x, c)
		wantA := a1.Query(x)
		if gotA.Index != wantA.Index || gotA.Stats.Probes != wantA.Stats.Probes ||
			gotA.Stats.Rounds != wantA.Stats.Rounds {
			t.Fatalf("ctx reuse diverged on algo1: %+v vs %+v", gotA, wantA)
		}
		gotB := a2.QueryWithCtx(x, c)
		wantB := a2.Query(x)
		if gotB.Index != wantB.Index || gotB.Stats.Probes != wantB.Stats.Probes {
			t.Fatalf("ctx reuse diverged on algo2: %+v vs %+v", gotB, wantB)
		}
	}
}

func TestLambdaLevelSelection(t *testing.T) {
	idx, _ := buildTestIndex(t, 1024, 80, Params{Gamma: 2, Seed: 11})
	s := NewLambda(idx)
	alpha := math.Sqrt2
	for _, lambda := range []float64{1, 2, 8, 64, 1024} {
		i := s.Level(lambda)
		if i < 0 || i > idx.Fam.L {
			t.Fatalf("level %d out of range", i)
		}
		if lambda > 1 && math.Pow(alpha, float64(i)) < lambda-1e-9 {
			t.Errorf("lambda=%v: level radius %v below lambda", lambda, math.Pow(alpha, float64(i)))
		}
	}
	// Tiny and huge lambdas clamp.
	if s.Level(0.5) != 0 {
		t.Error("small lambda not clamped to 0")
	}
	if s.Level(1e9) != idx.Fam.L {
		t.Error("huge lambda not clamped to L")
	}
}

func TestLambdaYesInstance(t *testing.T) {
	idx, db := buildTestIndex(t, 1024, 100, Params{Gamma: 2, Seed: 12})
	s := NewLambda(idx)
	r := rng.New(13)
	hits := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		x := hamming.AtDistance(r, db[trial], 1024, 8)
		res := s.QueryNear(x, 8)
		if res.Stats.Probes != 1 || res.Stats.Rounds != 1 {
			t.Fatalf("lambda probes=%d rounds=%d", res.Stats.Probes, res.Stats.Rounds)
		}
		if res.Index >= 0 && float64(bitvec.Distance(db[res.Index], x)) <= 2*8 {
			hits++
		}
	}
	if hits < trials*3/4 {
		t.Errorf("YES instances answered %d/%d", hits, trials)
	}
}

func TestLambdaNoInstance(t *testing.T) {
	idx, db := buildTestIndex(t, 1024, 100, Params{Gamma: 2, Seed: 14})
	s := NewLambda(idx)
	r := rng.New(15)
	correct := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		// Uniform random x sits at distance ≈ d/2 = 512 ≫ γλ = 16.
		x := hamming.Random(r, 1024)
		if hamming.MinDistance(db, x) <= 16 {
			continue
		}
		res := s.QueryNear(x, 8)
		if res.Index < 0 && res.Err == nil {
			correct++
		}
	}
	if correct < trials*3/4 {
		t.Errorf("NO instances answered %d/%d", correct, trials)
	}
}

func TestBoostedImprovesOrMatches(t *testing.T) {
	d, n := 512, 90
	r := rng.New(16)
	db := make([]bitvec.Vector, n)
	for i := range db {
		db[i] = hamming.Random(r, d)
	}
	factory := func(seed uint64) (Scheme, *Index) {
		idx := BuildIndex(db, d, Params{Gamma: 2, Seed: seed})
		return NewAlgo1(idx, 2), idx
	}
	single, _ := factory(500)
	boosted := NewBoosted(3, 500, factory)
	if boosted.Rounds() != single.Rounds() {
		t.Errorf("boosting changed rounds: %d vs %d", boosted.Rounds(), single.Rounds())
	}
	okSingle, okBoost := 0, 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		x := hamming.AtDistance(r, db[trial], d, 20)
		if res := single.Query(x); !res.Failed() && hamming.IsApproxNearest(db, x, db[res.Index], 2) {
			okSingle++
		}
		res := boosted.Query(x)
		if !res.Failed() && hamming.IsApproxNearest(db, x, db[res.Index], 2) {
			okBoost++
		}
		if res.Stats.Rounds > 2 {
			t.Fatalf("boosted used %d rounds", res.Stats.Rounds)
		}
	}
	if okBoost < okSingle {
		t.Errorf("boosting hurt success: %d vs %d", okBoost, okSingle)
	}
}

func TestBoostedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBoosted(0) did not panic")
		}
	}()
	NewBoosted(0, 1, nil)
}

func TestQueryWithRecordingCtx(t *testing.T) {
	idx, db := buildTestIndex(t, 512, 80, Params{Gamma: 2, Seed: 17})
	a := NewAlgo1(idx, 3)
	r := rng.New(18)
	x := hamming.AtDistance(r, db[0], 512, 30)
	c := NewRecordingQueryCtx()
	res := a.QueryWithCtx(x, c)
	tr := c.Probe().Transcript()
	if len(tr) != res.Stats.Probes {
		t.Errorf("transcript %d entries, %d probes", len(tr), res.Stats.Probes)
	}
	// Round tags must be non-decreasing and within budget.
	last := 0
	for _, e := range tr {
		if e.Round < last || e.Round >= 3 {
			t.Fatalf("bad round tag %d", e.Round)
		}
		last = e.Round
	}
}

func TestSchemeNamesAndRounds(t *testing.T) {
	idx, _ := buildTestIndex(t, 256, 50, Params{Gamma: 2, K: 4, Seed: 19})
	if NewAlgo1(idx, 3).Name() != "algo1(k=3)" {
		t.Error(NewAlgo1(idx, 3).Name())
	}
	if NewAlgo2(idx, 4).Name() != "algo2(k=4)" {
		t.Error(NewAlgo2(idx, 4).Name())
	}
	if NewAlgo1(idx, 3).Rounds() != 3 || NewAlgo2(idx, 4).Rounds() != 4 {
		t.Error("rounds accessor wrong")
	}
	if NewLambda(idx).Rounds() != 1 {
		t.Error("lambda rounds")
	}
}
