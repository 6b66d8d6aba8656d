package server

import (
	"time"

	"repro/internal/bitvec"
	"repro/internal/obs"
)

// buildRegistry wires /metricsz: every /statsz field as a func-backed
// series reading the same atomics, plus the per-stage latency histograms
// /statsz cannot express. Metric naming follows DESIGN.md §12:
// anns_<noun>_total for counters, anns_<noun> for gauges,
// anns_stage_seconds{stage=...} for the stage histograms.
func (s *Server) buildRegistry() {
	reg := obs.NewRegistry()
	s.reg = reg

	counter := func(name, help string, v func() int64) {
		reg.CounterFunc(name, help, nil, func() float64 { return float64(v()) })
	}
	counter("anns_queries_total", "Point queries served (including cache hits).", s.fe.C.Queries.Load)
	counter("anns_near_total", "Near (lambda) queries served.", s.fe.C.Near.Load)
	counter("anns_batches_total", "Batch requests served.", s.fe.C.Batches.Load)
	counter("anns_errors_total", "Query executions that returned an error.", s.fe.C.Errors.Load)
	counter("anns_rejected_total", "Requests rejected with a full admission queue.", s.fe.C.Rejected.Load)
	counter("anns_deadline_exceeded_total", "Requests that hit their deadline before execution finished.", s.fe.C.DeadlineExceeded.Load)
	counter("anns_probes_total", "Cells probed across all queries.", s.fe.C.Probes.Load)
	counter("anns_rounds_total", "Probing rounds across all queries.", s.fe.C.Rounds.Load)
	counter("anns_inserts_total", "Accepted inserts.", s.m.inserts.Load)
	counter("anns_deletes_total", "Accepted deletes.", s.m.deletes.Load)
	counter("anns_mutation_errors_total", "Failed mutations.", s.m.mutErrors.Load)
	counter("anns_replicated_frames_total", "WAL frames applied from replication.", s.m.replFrames.Load)
	counter("anns_replication_errors_total", "Replication frames rejected.", s.m.replErrors.Load)

	reg.GaugeFunc("anns_uptime_seconds", "Process uptime.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("anns_max_rounds", "Max probing rounds seen on one query.", nil,
		func() float64 { return float64(s.fe.C.MaxRounds.Load()) })
	reg.GaugeFunc("anns_max_parallel", "Max intra-query parallelism seen.", nil,
		func() float64 { return float64(s.fe.C.MaxParallel.Load()) })
	reg.GaugeFunc("anns_queue_depth", "Tasks waiting in the admission queue.", nil,
		func() float64 { return float64(len(s.queue)) })
	reg.GaugeFunc("anns_workers", "Worker pool size.", nil,
		func() float64 { return float64(s.cfg.Workers) })
	reg.GaugeFunc("anns_index_points", "Points in the served index.", nil,
		func() float64 { return float64(s.idx.Len()) })
	reg.GaugeFunc("anns_index_load_seconds", "Build or snapshot-load duration.",
		obs.Labels{"source": s.cfg.Index.Source},
		func() float64 { return s.cfg.Index.LoadDuration.Seconds() })
	reg.GaugeFunc("anns_scan_kernel_info", "Table-scan body behind /v1/batch on this machine (constant 1; the impl label names it).",
		obs.Labels{"impl": bitvec.ScanKernel()}, func() float64 { return 1 })
	if s.cfg.Index.MappedBytes > 0 {
		reg.GaugeFunc("anns_mapped_bytes", "Bytes mmapped for zero-copy serving.", nil,
			func() float64 { return float64(s.cfg.Index.MappedBytes) })
	}

	s.fe.RegisterCache(reg, "anns_")

	if ms, ok := s.idx.(mutableStatser); ok {
		mg := func(name, help string, v func() float64) { reg.GaugeFunc(name, help, nil, v) }
		mg("anns_mutable_live_points", "Live (non-tombstoned) points.", func() float64 { return float64(ms.MutableStats().LiveN) })
		mg("anns_mutable_memtable_points", "Points in the active memtable.", func() float64 { return float64(ms.MutableStats().Memtable) })
		mg("anns_mutable_sealed_segments", "Sealed immutable segments.", func() float64 { return float64(ms.MutableStats().Sealed) })
		mg("anns_mutable_tombstones", "Tombstoned IDs awaiting compaction.", func() float64 { return float64(ms.MutableStats().Tombstones) })
		mg("anns_mutable_generation", "Index mutation epoch.", func() float64 { return float64(ms.MutableStats().Generation) })
		mg("anns_replication_offset", "Highest applied WAL offset.", func() float64 { return float64(ms.MutableStats().ReplicationOffset) })
		mg("anns_wal_bytes", "WAL size on disk.", func() float64 { return float64(ms.MutableStats().WALBytes) })
		reg.CounterFunc("anns_segments_built_total", "Segments sealed and built.", nil,
			func() float64 { return float64(ms.MutableStats().SegmentsBuilt) })
		reg.CounterFunc("anns_compactions_total", "Completed compactions.", nil,
			func() float64 { return float64(ms.MutableStats().Compactions) })
	}

	s.hWait = reg.Histogram("anns_stage_seconds", "Per-stage serving latency.", obs.Labels{"stage": "admission_wait"})
	s.hExec = reg.Histogram("anns_stage_seconds", "Per-stage serving latency.", obs.Labels{"stage": "execute"})
	s.fe.CacheHist = reg.Histogram("anns_stage_seconds", "Per-stage serving latency.", obs.Labels{"stage": "cache_lookup"})
}
