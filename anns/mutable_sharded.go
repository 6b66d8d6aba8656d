package anns

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// MutableSharded is the single-process composition of the sharded tier
// and the mutable tier: S MutableIndex shards over the round-robin
// partition, with global IDs assigned exactly as a router assigns them
// across a replicated cluster — global g lives in shard g%S as that
// shard's local ID g/S (the RoundRobinGlobal formula, which round-robin
// writes preserve forever: after N base points, shard s's next local ID
// is always (next global landing on s)/S).
//
// It exists as the replication oracle: `annsd -mutable -shards S` serves
// one of these, and `annsload -compare` holds a routed S-shard replica
// cluster byte-identical to it over a fixed-seed mutation stream —
// results, accounting, and assigned IDs. Queries fold with the same
// MergeShardReplies/RoundRobinGlobal pair the router uses, so the
// equivalence is structural.
type MutableSharded struct {
	opts   Options
	shards []*MutableIndex
	global func(shard, local int) int

	mu         sync.Mutex // serializes mutations: global ID assignment is an order
	nextGlobal uint64
}

// BuildMutableSharded builds the S-shard base with BuildSharded (same
// partition, same derived seeds as `annsctl shard-split`) and layers one
// MutableIndex per shard. cfg applies per shard with its Options field
// overridden by each shard's own (derived-seed) build options, so shard
// s's tier evolves exactly like a replica booted from shard-s.snap.
// cfg.WALPath, when set, expands to per-shard logs "<path>.<s>";
// cfg.SnapshotPath is rejected (a compaction snapshot truncates the WAL,
// which would desynchronize replication offsets — DESIGN.md §11).
func BuildMutableSharded(points []Point, shards int, opts Options, cfg MutableConfig) (*MutableSharded, error) {
	if cfg.SnapshotPath != "" {
		return nil, errors.New("anns: MutableSharded does not support SnapshotPath (WAL truncation breaks replication offsets)")
	}
	sx, err := BuildSharded(points, shards, opts)
	if err != nil {
		return nil, err
	}
	ms := &MutableSharded{
		opts:       sx.Options(),
		shards:     make([]*MutableIndex, shards),
		global:     RoundRobinGlobal(shards),
		nextGlobal: uint64(len(points)),
	}
	for s := 0; s < shards; s++ {
		c := cfg
		c.Options = Options{} // adopt the shard base's derived-seed options
		if cfg.WALPath != "" {
			c.WALPath = fmt.Sprintf("%s.%d", cfg.WALPath, s)
		}
		ms.shards[s], err = NewMutable(sx.Shard(s), c)
		if err != nil {
			for _, mx := range ms.shards[:s] {
				mx.Close()
			}
			return nil, fmt.Errorf("anns: mutable shard %d/%d: %w", s, shards, err)
		}
	}
	// WAL replay may have advanced the shards past the base: the next
	// global ID is the smallest global that would land on any shard's
	// next local slot (min over s of NextID_s·S + s, which is len(points)
	// when nothing replayed).
	for s, mx := range ms.shards {
		c := mx.MutableStats().NextID*uint64(shards) + uint64(s)
		if s == 0 || c < ms.nextGlobal {
			ms.nextGlobal = c
		}
	}
	return ms, nil
}

// Insert routes p to shard nextGlobal%S and returns the global ID. The
// shard must assign local ID nextGlobal/S — anything else means its
// state diverged from the round-robin order and is an error, not a
// silently wrong translation.
func (ms *MutableSharded) Insert(p Point) (uint64, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	g := ms.nextGlobal
	S := uint64(len(ms.shards))
	local, err := ms.shards[g%S].Insert(p)
	if err != nil {
		return 0, err
	}
	if local != g/S {
		return 0, fmt.Errorf("anns: shard %d assigned local id %d to global %d, want %d", g%S, local, g, g/S)
	}
	ms.nextGlobal = g + 1
	return g, nil
}

// Delete tombstones global ID g on its shard, reporting whether it was
// live.
func (ms *MutableSharded) Delete(g uint64) (bool, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	S := uint64(len(ms.shards))
	return ms.shards[g%S].Delete(g / S)
}

// Query fans out to every mutable shard concurrently and folds the
// per-shard answers — each already a stable local ID — through the
// round-robin translation, with the shared merge accounting.
func (ms *MutableSharded) Query(x Point) (Result, error) {
	return fanOut(ms.shards, ms.global, x, false, 0)
}

// QueryScratch implements the server's scratch surface; the fan-out runs
// on per-shard pooled contexts, so the caller's scratchpad is unused.
func (ms *MutableSharded) QueryScratch(x Point, _ *Scratch) (Result, error) {
	return ms.Query(x)
}

// QueryNear answers the λ-near decision over all shards: YES from any
// shard (closest witness wins) beats NO; NO only when every shard
// answered NO; errors surface only when no shard answered at all.
func (ms *MutableSharded) QueryNear(x Point, lambda float64) (Result, error) {
	return fanOut(ms.shards, ms.global, x, true, lambda)
}

// QueryNearScratch is the λ-ANNS counterpart of QueryScratch.
func (ms *MutableSharded) QueryNearScratch(x Point, lambda float64, _ *Scratch) (Result, error) {
	return ms.QueryNear(x, lambda)
}

// BatchQueryContext answers many queries over a fixed worker pool, each
// worker running the full shard fan-out.
func (ms *MutableSharded) BatchQueryContext(ctx context.Context, xs []Point, workers int) []BatchResult {
	return batchRun(ctx, len(xs), workers, func(i int, sc *Scratch) (Result, error) {
		return ms.QueryScratch(xs[i], sc)
	})
}

// Len returns the live point count across shards.
func (ms *MutableSharded) Len() int {
	n := 0
	for _, mx := range ms.shards {
		n += mx.Len()
	}
	return n
}

// Shards returns the shard count.
func (ms *MutableSharded) Shards() int { return len(ms.shards) }

// Shard returns shard s's MutableIndex (answers in shard-local IDs).
func (ms *MutableSharded) Shard(s int) *MutableIndex { return ms.shards[s] }

// Options returns the normalized build options (user seed; shards derive
// their own).
func (ms *MutableSharded) Options() Options { return ms.opts }

// Generation sums the shard generations: any mutation, seal, segment
// landing, or compaction on any shard advances it, which is all the
// result cache's epoch invalidation needs.
func (ms *MutableSharded) Generation() uint64 {
	var g uint64
	for _, mx := range ms.shards {
		g += mx.Generation()
	}
	return g
}

// MutableStats aggregates the shard tiers (sums; NextID is the next
// global ID; ReplicationOffset sums the per-shard applied offsets).
func (ms *MutableSharded) MutableStats() MutableStats {
	ms.mu.Lock()
	next := ms.nextGlobal
	ms.mu.Unlock()
	out := MutableStats{NextID: next}
	for _, mx := range ms.shards {
		st := mx.MutableStats()
		out.LiveN += st.LiveN
		out.Memtable += st.Memtable
		out.Sealed += st.Sealed
		out.SegmentsBuilt += st.SegmentsBuilt
		out.Compactions += st.Compactions
		out.Tombstones += st.Tombstones
		out.Inserts += st.Inserts
		out.Deletes += st.Deletes
		out.WALReplayed += st.WALReplayed
		out.WALBytes += st.WALBytes
		out.ReplicationOffset += st.ReplicationOffset
		out.Generation += st.Generation
		if st.LastCompactError != "" && out.LastCompactError == "" {
			out.LastCompactError = st.LastCompactError
		}
	}
	return out
}

// WaitIdle blocks until every shard's queued background work finishes.
func (ms *MutableSharded) WaitIdle() {
	for _, mx := range ms.shards {
		mx.WaitIdle()
	}
}

// Close closes every shard tier, returning the first error.
func (ms *MutableSharded) Close() error {
	var first error
	for _, mx := range ms.shards {
		if err := mx.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
