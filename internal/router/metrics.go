package router

import (
	"strconv"

	"repro/internal/obs"
)

// buildRegistry wires the router's /metricsz: every /statsz field as a
// func-backed series over the same atomics, per-shard request counters
// and exact RPC latency histograms, and the merge/cache stage
// histograms. Naming follows DESIGN.md §12 with an anns_router_ prefix
// so a combined scrape of router + shards never collides.
func (rt *Router) buildRegistry() {
	reg := obs.NewRegistry()
	rt.reg = reg

	counter := func(name, help string, v func() int64) {
		reg.CounterFunc(name, help, nil, func() float64 { return float64(v()) })
	}
	counter("anns_router_queries_total", "Merged point queries served (including cache hits).", rt.fe.C.Queries.Load)
	counter("anns_router_near_total", "Merged near (lambda) queries served.", rt.fe.C.Near.Load)
	counter("anns_router_batches_total", "Batch requests served.", rt.fe.C.Batches.Load)
	counter("anns_router_errors_total", "Merged queries that failed on every shard.", rt.fe.C.Errors.Load)
	counter("anns_router_rejected_total", "Requests rejected at max in-flight.", rt.fe.C.Rejected.Load)
	counter("anns_router_deadline_exceeded_total", "Requests that hit their end-to-end deadline.", rt.fe.C.DeadlineExceeded.Load)
	counter("anns_router_probes_total", "Cells probed across merged answers.", rt.fe.C.Probes.Load)
	counter("anns_router_rounds_total", "Probing rounds across merged answers.", rt.fe.C.Rounds.Load)
	counter("anns_router_writes_total", "Acked mutations.", rt.m.writes.Load)
	counter("anns_router_write_errors_total", "Failed mutations.", rt.m.writeErrors.Load)
	counter("anns_router_replicated_frames_total", "WAL frames relayed to replicas.", rt.m.replications.Load)
	counter("anns_router_replication_errors_total", "WAL relay failures.", rt.m.replicationErrs.Load)
	counter("anns_router_promotions_total", "Primary promotions.", rt.m.promotions.Load)

	reg.GaugeFunc("anns_router_uptime_seconds", "Router uptime (on the router's clock).", nil,
		func() float64 { return rt.clock.Since(rt.start).Seconds() })
	reg.GaugeFunc("anns_router_in_flight", "Admitted requests currently in flight.", nil,
		func() float64 { return float64(len(rt.sem)) })
	reg.GaugeFunc("anns_router_max_rounds", "Max probing rounds seen on one merged query.", nil,
		func() float64 { return float64(rt.fe.C.MaxRounds.Load()) })
	reg.GaugeFunc("anns_router_max_parallel", "Max intra-query parallelism seen.", nil,
		func() float64 { return float64(rt.fe.C.MaxParallel.Load()) })
	reg.GaugeFunc("anns_router_epoch", "Placement epoch (bumped on promotion).", nil,
		func() float64 { return float64(rt.epoch.Load()) })
	reg.GaugeFunc("anns_router_shards", "Shard positions routed.", nil,
		func() float64 { return float64(len(rt.shards)) })

	for _, sh := range rt.shards {
		sh := sh
		lbl := obs.Labels{"shard": strconv.Itoa(sh.pos)}
		shardCounter := func(name, help string, v func() int64) {
			reg.CounterFunc(name, help, lbl, func() float64 { return float64(v()) })
		}
		shardCounter("anns_router_shard_requests_total", "Requests routed to this shard.", sh.requests.Load)
		shardCounter("anns_router_shard_errors_total", "Shard requests that failed on every replica.", sh.errors.Load)
		shardCounter("anns_router_shard_hedges_total", "Hedged second attempts launched.", sh.hedges.Load)
		shardCounter("anns_router_shard_hedge_wins_total", "Hedged attempts that won.", sh.hedgeWins.Load)
		shardCounter("anns_router_shard_failovers_total", "Failover attempts launched.", sh.failovers.Load)
		reg.GaugeFunc("anns_router_shard_healthy_replicas", "Healthy replicas in this shard's set.", lbl,
			func() float64 {
				n := 0
				for _, rep := range sh.replicas {
					if rep.healthy() {
						n++
					}
				}
				return float64(n)
			})
		reg.RegisterHistogram("anns_router_shard_rpc_seconds",
			"Winning shard RPC latency (exact LogHistogram).", lbl, sh.rpc)
	}

	rt.fe.RegisterCache(reg, "anns_router_")

	rt.hMerge = reg.Histogram("anns_router_stage_seconds", "Per-stage router latency.", obs.Labels{"stage": "merge"})
	rt.fe.CacheHist = reg.Histogram("anns_router_stage_seconds", "Per-stage router latency.", obs.Labels{"stage": "cache_lookup"})
}
