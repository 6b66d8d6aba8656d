package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestScheduleIsDeterminedBySeed(t *testing.T) {
	for _, w := range workloadDefs {
		sz := quickSizes(w.Name)
		a, err := compile(w.Name, 1, sz)
		if err != nil {
			t.Fatal(err)
		}
		b, err := compile(w.Name, 1, sz)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest != b.digest || !reflect.DeepEqual(a.solo, b.solo) || !reflect.DeepEqual(a.sat, b.sat) ||
			!reflect.DeepEqual(a.freshBody, b.freshBody) || !reflect.DeepEqual(a.queryBody, b.queryBody) {
			t.Errorf("%s: the same seed compiled two different plans", w.Name)
		}
		c, err := compile(w.Name, 2, sz)
		if err != nil {
			t.Fatal(err)
		}
		if c.digest == a.digest {
			t.Errorf("%s: seeds 1 and 2 compiled to the same digest", w.Name)
		}
		if len(a.solo) != sz.SoloOps || len(a.sat) != sz.SatOps || len(a.warm) != sz.WarmOps {
			t.Errorf("%s: segments %d/%d/%d, want %d/%d/%d", w.Name, len(a.warm), len(a.solo), len(a.sat), sz.WarmOps, sz.SoloOps, sz.SatOps)
		}
	}
}

func TestPinnedDigests(t *testing.T) {
	var pins map[string]string
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		t.Fatal(err)
	}
	for quick, seeds := range pinnedSeeds {
		for _, seed := range seeds {
			for _, w := range workloadDefs {
				if _, ok := pins[digestKey(quick, w.Name, seed)]; !ok {
					t.Errorf("digests.json does not pin %s", digestKey(quick, w.Name, seed))
				}
			}
		}
	}
	cfg := runConfig{wl: wlChurn, seed: 1, quick: true}
	p, err := compile(cfg.wl, cfg.seed, cfg.sizes())
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDigest(cfg, p.digest); err != nil {
		t.Errorf("pinned quick inputs no longer compile to their digest: %v", err)
	}
	if err := checkDigest(cfg, "0000"); err == nil {
		t.Error("a digest mismatch on a pinned seed did not fail the run")
	}
	cfg.seed = 12345
	if err := checkDigest(cfg, "0000"); err != nil {
		t.Errorf("an unpinned seed must pass: %v", err)
	}
}

// A synthetic tree with overlapping siblings, a grandchild and a child
// that overruns its parent:
//
//	root  [0,100]
//	  A   [10,60]   ⊃ A1 [20,30]
//	  B   [40,90]   (overlaps A on [40,60])
//	  C   [95,120]  (clipped to [95,100])
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, StartUS: 0, DurUS: 100},
		{Name: "A", Parent: 0, StartUS: 10, DurUS: 50},
		{Name: "B", Parent: 0, StartUS: 40, DurUS: 50},
		{Name: "A1", Parent: 1, StartUS: 20, DurUS: 10},
		{Name: "C", Parent: 0, StartUS: 95, DurUS: 25},
	}
	computeSelf(spans)
	want := map[string]float64{
		"root": 100 - (80 + 5), // A∪B covers [10,90], C covers [95,100]
		"A":    40,
		"B":    50,
		"A1":   10,
		"C":    25,
	}
	for _, s := range spans {
		if math.Abs(s.SelfUS-want[s.Name]) > 1e-9 {
			t.Errorf("self(%s) = %v, want %v", s.Name, s.SelfUS, want[s.Name])
		}
	}
	// Critical path: root's self, then of the overlapping group {A,B} the
	// longer one (a tie: the first, A = 40 + 10), then C on its own.
	if got, want := attribute(spans, 0), 15.0+50+25; math.Abs(got-want) > 1e-9 {
		t.Errorf("attribute(root) = %v, want %v", got, want)
	}
	if got := unionLen([]interval{{0, 10}, {5, 20}, {30, 40}, {-5, 2}}, 0, 35); got != 25 {
		t.Errorf("unionLen = %v, want 25", got)
	}
}

// One routed read as the pieces arrive: the client span, two middleware
// spans per tier, and the router's X-Anns-Spans timeline with a shard's
// stages rebased onto it.
func TestBuildRequestJoinsTiers(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	raws := []rawSpan{
		{Kind: spanRouter, Node: "R", Path: "/v1/query", TraceID: "t", Start: at(20), Dur: 200 * time.Microsecond},
		{Kind: spanServer, Node: "S0", Path: "/v1/query", TraceID: "t", Start: at(70), Dur: 60 * time.Microsecond},
		{Kind: spanServer, Node: "S1", Path: "/v1/query", TraceID: "t", Start: at(75), Dur: 80 * time.Microsecond},
	}
	inner := []obs.Span{
		{Stage: "rpc", Replica: "S0", StartUS: 30, DurUS: 110, Outcome: "ok"},
		{Stage: "rpc", Replica: "S1", StartUS: 32, DurUS: 140, Outcome: "ok"},
		{Stage: "execute", Replica: "S0", StartUS: 30 + 10, DurUS: 25, Outcome: "ok"}, // 10 µs after S0's arrival
		{Stage: "merge", StartUS: 175, DurUS: 2, Outcome: "ok"},
	}
	req := buildRequest("t", "query", t0, 250*time.Microsecond, raws, inner)
	byName := map[string]span{}
	for _, s := range req.Spans {
		byName[s.Name+"@"+s.Node] = s
	}
	if s := byName["server.execute@S0"]; s.StartUS != 80 || req.Spans[s.Parent].Name != spanServer || req.Spans[s.Parent].Node != "S0" {
		t.Errorf("execute placed at %v under %q, want 80 under S0's handler", s.StartUS, req.Spans[s.Parent].Name)
	}
	if s := byName[spanServer+"@S1"]; req.Spans[s.Parent].Name != "router.rpc" || req.Spans[s.Parent].Node != "S1" {
		t.Errorf("S1's handler hangs under %q@%q, want its rpc", req.Spans[s.Parent].Name, req.Spans[s.Parent].Node)
	}
	if got := byName[spanClient+"@"].SelfUS; got != 50 {
		t.Errorf("client self (wire) = %v, want 50", got)
	}
	sums := layerSums([]tracedRequest{req})
	if got := sums["router.rpc_skew_us"]; len(got) != 1 || got[0] != 30 {
		t.Errorf("rpc skew = %v, want [30]", got)
	}
	if got := sums["router.rpc_wire_us"]; len(got) != 2 || got[0]+got[1] != 50+60 {
		t.Errorf("rpc wire = %v, want 50 and 60", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if !percentileSupported(1000, 0.99) || percentileSupported(999, 0.99) {
		t.Error("p99 needs exactly 1000 samples to leave 10 beyond it")
	}
	if !percentileSupported(200, 0.95) || percentileSupported(199, 0.95) {
		t.Error("p95 needs exactly 200 samples")
	}
	samples := make([]float64, 11000)
	for i := range samples {
		samples[i] = float64(i % 1100)
	}
	for _, c := range []struct{ n, windows int }{{11000, 10}, {5500, 5}, {4999, 4}, {1100, 1}} {
		_, w, err := tailPercentile(samples[:c.n], 0.99)
		if err != nil || w != c.windows {
			t.Errorf("%d samples: %d windows (err %v), want %d", c.n, w, err, c.windows)
		}
	}
	if _, _, err := tailPercentile(samples[:900], 0.99); err == nil {
		t.Error("p99 over 900 samples was reported instead of refused")
	}
	// One stall moves one window's percentile, not the median of ten.
	stalled := append([]float64(nil), samples...)
	for i := 0; i < 30; i++ {
		stalled[i*10] = 1e6
	}
	a, _, _ := tailPercentile(samples, 0.99)
	b, _, _ := tailPercentile(stalled, 0.99)
	if a != b {
		t.Errorf("a stall confined to one window moved the tail from %v to %v", a, b)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v", q1, q3, median(xs))
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkJSONIsTheRegistry(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the registry; regenerate it with `go run -C benchmark . -emit-spec > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q breaks the naming rule", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadDefs {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower is better) must be an end-to-end metric")
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q / better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || runSeconds < 1 || runSeconds > 60 {
		t.Error("registry outside the BENCHMARK.json limits")
	}
}

// emitted checks a run printed exactly the registry's metrics, each with
// the registry's unit: everything named is emitted, nothing unnamed is.
func emitted(t *testing.T, res *runResult, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s %s: %d metrics emitted, registry names %d", res.Workload, res.Mode, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s %s: %s not emitted", res.Workload, res.Mode, d.Name)
		} else if v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s %s: %s = %v %q, want unit %q", res.Workload, res.Mode, d.Name, v.Value, v.Unit, d.Unit)
		}
	}
}

// TestQuick is the benchmark at ~1/20 size: all four workloads, timed
// and traced, every correctness gate. It is what keeps the benchmark
// from rotting between the runs that matter.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("boots eight deployments")
	}
	start := time.Now()
	out := t.TempDir()
	for _, w := range workloadDefs {
		cfg := runConfig{wl: w.Name, seed: 1, seconds: 0.6, quick: true, outDir: out}
		timed, err := runTimed(cfg)
		if err != nil {
			t.Fatalf("%s timed: %v", w.Name, err)
		}
		if !timed.Correct {
			t.Errorf("%s timed: incorrect: %v (%d failed)", w.Name, timed.Errors, timed.Failed)
		}
		emitted(t, timed, endToEnd)
		for _, d := range endToEnd {
			if timed.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.Name, d.Name, timed.Metrics[d.Name].Value)
			}
		}
		for _, ph := range timed.Phases {
			if ph.Attempted == 0 || ph.Succeeded != ph.Attempted || ph.Failed != 0 {
				t.Errorf("%s phase %s: attempted %d succeeded %d failed %d", w.Name, ph.Name, ph.Attempted, ph.Succeeded, ph.Failed)
			}
		}
		traced, err := runTraced(cfg)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !traced.Correct {
			t.Errorf("%s traced: incorrect: %v (%d failed)", w.Name, traced.Errors, traced.Failed)
		}
		emitted(t, traced, perLayer)
		if v := traced.Metrics["core.rounds_max"].Value; v < 1 || v > rounds {
			t.Errorf("%s: core.rounds_max = %v, the budget k is %d", w.Name, v, rounds)
		}
		if v := traced.Metrics["unattributed_share"].Value; v < 0 || v > 0.5 {
			t.Errorf("%s: unattributed_share = %v", w.Name, v)
		}
		var tf traceFile
		raw, err := os.ReadFile(out + "/trace-" + w.Name + ".json")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Requests) != quickSizes(w.Name).TraceOps || tf.Machine.NProc == 0 {
			t.Errorf("%s: trace file holds %d requests (err %v)", w.Name, len(tf.Requests), err)
		}
		line, err := json.Marshal(driverLine{timed.Correct, timed.Attempted, timed.Failed, timed.Metrics})
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
			t.Errorf("driver line has keys %v", keys)
		}
	}
	// Everything left behind is a result or trace file: scratch is removed.
	ents, _ := os.ReadDir(out)
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("run scratch %s was left behind", e.Name())
		}
	}
	if d := time.Since(start); d > 15*time.Second && !raceEnabled {
		t.Errorf("quick mode took %v; it must stay under 15 s", d)
	}
}

func TestSelfCheckMarksWideSpreadsUnresolved(t *testing.T) {
	run := func(ops, p50 float64) *runResult {
		m := map[string]metricValue{}
		for _, d := range endToEnd {
			m[d.Name] = metricValue{1, d.Unit}
		}
		m["ops_per_s"] = metricValue{ops, "1/s"}
		m["read_p50_us"] = metricValue{p50, "us"}
		return &runResult{Metrics: m}
	}
	var runs []*runResult
	for i := 0; i < 10; i++ {
		runs = append(runs, run(1000+float64(i), 100+20*float64(i%5))) // ops: spread < 1%; p50: ~50%
	}
	for _, c := range selfCheck(runs) {
		switch c.Metric {
		case "ops_per_s":
			if c.Unresolved || c.Spread > 0.01 {
				t.Errorf("ops_per_s: spread %v unresolved %v", c.Spread, c.Unresolved)
			}
		case "read_p50_us":
			if !c.Unresolved {
				t.Errorf("read_p50_us with spread %v above bound %v was not marked unresolved", c.Spread, c.Bound)
			}
		}
	}
}
