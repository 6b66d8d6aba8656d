package main

import (
	"encoding/json"
	"fmt"
	"sort"
)

// This file is the benchmark's vocabulary: every workload and every
// metric the program can emit, by name, with its unit. BENCHMARK.json at
// the repository root is generated from it (-emit-spec) and a unit test
// keeps the two equal, so a metric cannot be printed without being named
// there, nor named there without being printed.

// metricDef is one named metric. Bound is the relative worsening that
// counts as a regression and is set on end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

const (
	wlRoutedRepeat = "routed-repeat"
	wlRoutedZipf   = "routed-zipf-cached"
	wlEngineNovel  = "engine-novel"
	wlChurn        = "replicated-churn"
)

var workloadDefs = []workloadDef{
	{wlRoutedRepeat, "2x2 routed cluster over mmap snapshots, caches off, repeated keys: router, shard RPC wire and JSON do ~90% of the work, the engine ~10%"},
	{wlRoutedZipf, "the same cluster with result caches on and zipfian keys over 2x the cache: qcache and pre-admission do the work, RPC and engine are bypassed on hits"},
	{wlEngineNovel, "one server over one index, batches of never-seen points: every probe is a cold cell, so table scans and bit kernels do >95% of the work and memo growth shows in heap_mb"},
	{wlChurn, "2x2 mutable cluster, fsynced WAL, 40/10/50 insert/delete/read from a fresh state: write path, cache invalidation cost and compaction stalls"},
}

// runSeconds is how long one driver run measures (BENCHMARK.json's
// run_seconds); soloShare of it goes to the 1-client phase.
const runSeconds = 10

// End-to-end metrics. The bounds are the issue's, widened where ten
// runs on the reference box (2 cores) showed a spread above a third of
// the issue's figure; README.md lists the measured spreads. The driver
// wants every end-to-end metric non-zero on every workload, and only
// replicated-churn writes, so the issue's write_p50_us/write_p99_us are
// emitted under those names as ungated per-layer rows instead.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.10},
	{"cpu_us_per_op", "us", "lower", 0.10},
	{"read_p50_us", "us", "lower", 0.10},
	{"read_p99_us", "us", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.15},
	{"recall", "share", "higher", 0.01},
}

// Per-layer metrics, grouped by the module they measure. "direct" rows
// are timed calls into the module's public functions; "count" rows are
// Stats() deltas over the traced replay; the rest come from spans.
var perLayer = []metricDef{
	// internal/router
	{Name: "router.self_us", Unit: "us", Better: "lower"},
	{Name: "router.rpc_us", Unit: "us", Better: "lower"},
	{Name: "router.rpc_wire_us", Unit: "us", Better: "lower"},
	{Name: "router.rpc_skew_us", Unit: "us", Better: "lower"},
	{Name: "router.merge_us", Unit: "us", Better: "lower"},
	{Name: "router.cache_lookup_us", Unit: "us", Better: "lower"},
	{Name: "router.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "router.hedge_share", Unit: "share", Better: "lower"},
	{Name: "router.hedge_win_share", Unit: "share", Better: "higher"},
	{Name: "router.write_self_us", Unit: "us", Better: "lower"},
	{Name: "router.frames_per_write", Unit: "count", Better: "lower"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},
	{Name: "router.rejected", Unit: "count", Better: "lower"},
	{Name: "router.deadline_exceeded", Unit: "count", Better: "lower"},
	// internal/server
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.admission_wait_us", Unit: "us", Better: "lower"},
	{Name: "server.execute_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_lookup_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.insert_us", Unit: "us", Better: "lower"},
	{Name: "server.replicate_us", Unit: "us", Better: "lower"},
	{Name: "server.decode_point_ns", Unit: "ns", Better: "lower"},
	{Name: "server.encode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	// internal/qcache
	{Name: "qcache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "qcache.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "qcache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "qcache.evictions", Unit: "count", Better: "lower"},
	{Name: "qcache.invalidations", Unit: "count", Better: "lower"},
	// anns
	{Name: "anns.query_us", Unit: "us", Better: "lower"},
	{Name: "anns.near_us", Unit: "us", Better: "lower"},
	{Name: "anns.sharded_query_us", Unit: "us", Better: "lower"},
	{Name: "anns.merge_ns", Unit: "ns", Better: "lower"},
	{Name: "anns.batch_point_us", Unit: "us", Better: "lower"},
	{Name: "anns.mutable_query_us", Unit: "us", Better: "lower"},
	{Name: "anns.insert_us", Unit: "us", Better: "lower"},
	{Name: "anns.compaction_ms", Unit: "ms", Better: "lower"},
	{Name: "anns.allocs_per_query", Unit: "count", Better: "lower"},
	{Name: "anns.stall_max_us", Unit: "us", Better: "lower"},
	// internal/core
	{Name: "core.query_us", Unit: "us", Better: "lower"},
	{Name: "core.probes_per_query", Unit: "count", Better: "lower"},
	{Name: "core.rounds_max", Unit: "count", Better: "lower"},
	{Name: "core.max_parallel", Unit: "count", Better: "lower"},
	// internal/cellprobe, internal/table
	{Name: "cellprobe.memo_hit_share", Unit: "share", Better: "higher"},
	{Name: "cellprobe.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "table.evalcell_us", Unit: "us", Better: "lower"},
	{Name: "table.memo_bytes_per_cell", Unit: "B", Better: "lower"},
	// internal/sketch, internal/bitvec
	{Name: "sketch.apply_ns", Unit: "ns", Better: "lower"},
	{Name: "sketch.apply_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "sketch.bytes_per_apply", Unit: "B", Better: "lower"},
	{Name: "bitvec.distance_ns", Unit: "ns", Better: "lower"},
	{Name: "bitvec.distance_sketch_ns", Unit: "ns", Better: "lower"},
	// internal/segment
	{Name: "segment.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "segment.wal_bytes_per_write", Unit: "B", Better: "lower"},
	{Name: "segment.memtable_scan_us", Unit: "us", Better: "lower"},
	{Name: "segment.encode_frame_ns", Unit: "ns", Better: "lower"},
	{Name: "segment.decode_frame_ns", Unit: "ns", Better: "lower"},
	// internal/snapshot
	{Name: "snapshot.build_s", Unit: "s", Better: "lower"},
	{Name: "snapshot.save_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.open_ms", Unit: "ms", Better: "lower"},
	{Name: "snapshot.bytes", Unit: "B", Better: "lower"},
	// generator, internal/obs
	{Name: "write_p50_us", Unit: "us", Better: "lower"},
	{Name: "write_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.wire_us", Unit: "us", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "share", Better: "lower"},
	{Name: "unattributed_share", Unit: "share", Better: "lower"},
}

// metricValue is one emitted number with its unit, as the driver reads it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects emitted metrics by name; put panics on a name the
// registry does not know, which is how "nothing unnamed is emitted"
// holds by construction.
type metricSet struct {
	defs   map[string]metricDef
	values map[string]metricValue
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, values: map[string]metricValue{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) put(name string, v float64) {
	d, ok := m.defs[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not in the registry", name))
	}
	m.values[name] = metricValue{Value: v, Unit: d.Unit}
}

// complete fills every registered metric the run did not produce with 0
// (a layer the workload does not exercise) and returns the full map.
func (m *metricSet) complete() map[string]metricValue {
	for name, d := range m.defs {
		if _, ok := m.values[name]; !ok {
			m.values[name] = metricValue{Value: 0, Unit: d.Unit}
		}
	}
	return m.values
}

// missing lists registered metrics with no value yet, sorted.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.defs {
		if _, ok := m.values[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// benchmarkJSON renders the registry in the BENCHMARK.json schema.
func benchmarkJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl(w))
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(out, '\n')
}
