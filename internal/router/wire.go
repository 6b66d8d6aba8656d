package router

import "repro/internal/server"

// Stats is the router's /statsz body. The merged-query counters share
// field names with internal/server's StatsSnapshot (queries, errors,
// probes, qps, …) so dashboards and cmd/annsload read one schema; the
// router adds the distribution-layer rollups: hedging, failover,
// admission, and per-shard/per-replica state.
type Stats struct {
	server.ReadStats

	InFlight  int     `json:"in_flight"`
	Hedges    int64   `json:"hedges"`
	HedgeWins int64   `json:"hedge_wins"`
	HedgeRate float64 `json:"hedge_rate"` // hedges / shard requests
	Failovers int64   `json:"failovers"`

	// Write-path rollups (zero on read-only clusters): routed mutations,
	// frames relayed to replicas, promotion count, the current placement
	// epoch (bumped on every promotion), and the configured durability
	// level. See DESIGN.md §11.
	Writes           int64  `json:"writes,omitempty"`
	WriteErrors      int64  `json:"write_errors,omitempty"`
	ReplicatedFrames int64  `json:"replicated_frames,omitempty"`
	ReplicationErrs  int64  `json:"replication_errors,omitempty"`
	Promotions       int64  `json:"promotions,omitempty"`
	Epoch            uint64 `json:"epoch"`
	Durability       string `json:"durability,omitempty"`

	ShardStats []ShardStats `json:"shard_stats"`

	// Cache is the router-level result-cache block (present only when
	// Config.CacheEntries enabled one); same schema as the shard servers'.
	Cache *server.CacheStats `json:"cache,omitempty"`
}

// ShardStats is one shard position's rollup: request counters, hedge
// accounting, and latency quantiles over the recent window.
type ShardStats struct {
	Shard     int     `json:"shard"`
	Replicas  int     `json:"replicas"`
	Healthy   int     `json:"healthy"`
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	Hedges    int64   `json:"hedges"`
	HedgeWins int64   `json:"hedge_wins"`
	Failovers int64   `json:"failovers"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	// HedgeDelayMS is the delay the next hedged request would wait
	// (0 while the latency window is cold).
	HedgeDelayMS float64 `json:"hedge_delay_ms"`
	// Primary is the URL of the shard's current write primary.
	Primary string `json:"primary,omitempty"`

	ReplicaStats []ReplicaStats `json:"replica_stats"`
}

// ReplicaStats is one replica's health-state snapshot. LastError is the
// most recent probe rejection reason — "misrouted: …" identifies a
// replica serving the wrong shard's snapshot. Evictions/Readmissions
// are lifetime transition counters and LastTransitionUnixMS stamps the
// most recent one (0 until the first transition), so external harnesses
// — the chaos runner, dashboards — can measure detection latency and
// false evictions from /statsz alone.
type ReplicaStats struct {
	URL                  string `json:"url"`
	State                string `json:"state"`
	Fails                int    `json:"fails"`
	Evictions            int64  `json:"evictions"`
	Readmissions         int64  `json:"readmissions"`
	LastTransitionUnixMS int64  `json:"last_transition_unix_ms,omitempty"`
	BackoffMS            int64  `json:"backoff_ms"`
	LastError            string `json:"last_error,omitempty"`
	// ReplicationOffset is the replica's last known applied offset (0 for
	// immutable replicas); Primary marks the shard's current write
	// primary. Converged replicas show equal offsets — the operator's
	// one-glance replication health check (OPERATIONS.md).
	ReplicationOffset uint64 `json:"replication_offset,omitempty"`
	Primary           bool   `json:"primary,omitempty"`
}
