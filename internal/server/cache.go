package server

import (
	"math"

	"repro/anns"
	"repro/internal/cellprobe"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// Result caching (DESIGN.md §10).
//
// The read front end (frontend.go) can put a qcache.Cache in front of a
// tier's backend: a hit answers from memory without touching the
// admission queue, the index, or a worker scratch (on the router: without
// scattering) — under zipfian traffic that is most requests. Three
// properties make this safe:
//
//   - The key is a collision-free fingerprint of the request: the packed
//     query point words (the full input, not a digest) under a tag that
//     separates /v1/query from /v1/near, plus the λ bits for near. Two
//     requests share a key exactly when the index would compute
//     byte-identical answers for them.
//   - Query execution is deterministic given index state, so a cached
//     reply IS the reply a fresh execution would produce at the same
//     generation.
//   - Every entry is stamped with the index generation observed before
//     the query ran; a mutation bumps the generation, making all older
//     entries unreachable (see internal/qcache).
//
// Failed queries are never cached (errors may be transient); the NO
// answer of /v1/near is a successful deterministic reply and is cached.

// Cache key tags: the tag separates request kinds so a /v1/query for
// point x never collides with a /v1/near for the same x.
const (
	cacheKindQuery = 1
	cacheKindNear  = 2
)

// generationer is the optional epoch surface: *anns.MutableIndex
// implements it; immutable indexes do not and are served at a constant
// generation 0 (their cache entries never invalidate — nothing mutates).
type generationer interface {
	Generation() uint64
}

// QueryCacheKey fingerprints a /v1/query request: one fingerprint
// definition for the whole serving stack (both tiers cache through the
// front end; the benchmark's cache micro-rows key with it too).
func QueryCacheKey(x anns.Point) cellprobe.Addr {
	return cellprobe.VecAddr(cellprobe.GenericTag(cacheKindQuery), x)
}

// NearCacheKey fingerprints a /v1/near request: λ's bit pattern followed
// by the point words.
func NearCacheKey(x anns.Point, lambda float64) cellprobe.Addr {
	var b cellprobe.AddrBuilder
	b.Reset(cellprobe.GenericTag(cacheKindNear))
	b.Uint(math.Float64bits(lambda))
	b.Vec(x)
	return b.Addr()
}

// CacheStats is /statsz's result-cache block (present only when the
// cache is enabled).
type CacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	Entries       int     `json:"entries"`
	Capacity      int     `json:"capacity"`
	HitRate       float64 `json:"hit_rate"`
}

// CacheStatsOf snapshots a cache into the wire block (nil for a disabled
// cache). Exported so the router serves the same /statsz cache schema.
func CacheStatsOf(c *qcache.Cache) *CacheStats {
	if c == nil {
		return nil
	}
	st := c.Stats()
	return &CacheStats{
		Hits:          st.Hits,
		Misses:        st.Misses,
		Evictions:     st.Evictions,
		Invalidations: st.Invalidations,
		Entries:       st.Entries,
		Capacity:      st.Capacity,
		HitRate:       st.HitRate(),
	}
}

// RegisterCache exposes the front end's result cache on /metricsz as
// <prefix>cache_* series reading the same snapshot /statsz serves (no
// series when caching is off).
func (fe *FrontEnd) RegisterCache(reg *obs.Registry, prefix string) {
	if fe.Cache == nil {
		return
	}
	stat := func(v func(CacheStats) float64) func() float64 {
		return func() float64 { return v(*CacheStatsOf(fe.Cache)) }
	}
	reg.CounterFunc(prefix+"cache_hits_total", "Result-cache hits.", nil,
		stat(func(c CacheStats) float64 { return float64(c.Hits) }))
	reg.CounterFunc(prefix+"cache_misses_total", "Result-cache misses.", nil,
		stat(func(c CacheStats) float64 { return float64(c.Misses) }))
	reg.CounterFunc(prefix+"cache_evictions_total", "Result-cache LRU evictions.", nil,
		stat(func(c CacheStats) float64 { return float64(c.Evictions) }))
	reg.CounterFunc(prefix+"cache_invalidations_total", "Result-cache generation invalidations.", nil,
		stat(func(c CacheStats) float64 { return float64(c.Invalidations) }))
	reg.GaugeFunc(prefix+"cache_entries", "Live result-cache entries.", nil,
		stat(func(c CacheStats) float64 { return float64(c.Entries) }))
	reg.GaugeFunc(prefix+"cache_capacity", "Result-cache capacity.", nil,
		stat(func(c CacheStats) float64 { return float64(c.Capacity) }))
}
