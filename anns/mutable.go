package anns

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/segment"
)

// MutableIndex layers online inserts and deletes over the paper's
// build-once static core (DESIGN.md §7). It is an LSM-style delta tier:
//
//	memtable          bounded in-memory buffer of fresh inserts, queried
//	                  by exact brute-force Hamming scan (1 round, one
//	                  probe per entry)
//	sealed segments   memtables that hit MemtableCap, frozen and queried
//	                  by the same exact scan until compaction folds them
//	base              the static index (the boot snapshot, or the last
//	                  compaction's from-scratch rebuild over live points)
//	tombstones        deleted point IDs, skipped by the scans, filtered
//	                  from the base's answer at merge time, and
//	                  physically applied by the next compaction
//
// A query fans out over {base, sealed segments, memtable} and folds the
// per-tier answers with MergeShardReplies — the same parallel-machine
// accounting the sharded and distributed tiers use (rounds = max over
// tiers, probes and max-parallel summed) — so the cell-probe accounting
// stays honest as the structure mutates. Every point carries a stable
// uint64 ID (the base's build positions, then sequentially assigned by
// Insert); Result.Index reports IDs, and Delete addresses them.
//
// The base is the only tier that runs the paper's scheme: at the size
// of a sealed memtable an exact scan is cheaper than asking a built
// index, so the compactor's Build is the tier's only one. It folds base
// + sealed segments into a fresh static build over the live points and
// swaps it in atomically; with a configured WAL every mutation is
// durable before it is acknowledged, boot replays the log, and a
// post-compaction snapshot truncates it.
type MutableIndex struct {
	cfg  MutableConfig
	opts Options

	mu      sync.RWMutex
	base    *Index
	baseIDs []uint64            // baseIDs[j] = ID of base row j; nil ⇒ identity
	segs    []*segment.Memtable // sealed, oldest first
	mem     *segment.Memtable
	tomb    *segment.IDSet // deleted, not yet compacted away
	present *segment.IDSet // live IDs (for Delete validation and Len)
	nextID  uint64
	epoch   uint64 // next compaction epoch (seed derivation)
	replSeq uint64 // mutations applied since base (replication offset, §11)
	closed  bool

	// gen is the index generation: it advances on every state change that
	// can alter a query's folded reply (insert, delete, memtable seal,
	// flush, compaction swap). Readers pair it with a query result to know
	// which epoch the answer belongs to; the serving layer's result cache
	// keys its validity on it (DESIGN.md §10).
	gen atomic.Uint64

	inserts, deletes, compactions int64
	walReplayed                   int
	lastCompactErr                string
	compactQueued                 bool

	wal       *segment.WAL
	replaying bool

	compactMu sync.Mutex // serializes compactions

	runMu      sync.RWMutex // guards tasks against Close
	stopped    bool
	tasks      chan func()
	workerDone chan struct{}
	pending    sync.WaitGroup
}

// MutableConfig tunes the mutable tier. Zero values select the defaults
// noted on each field.
type MutableConfig struct {
	// Options are the build options for compactions (and the base, when
	// NewMutable starts empty). When layering over an existing base index
	// the zero value adopts the base's options.
	Options Options
	// MemtableCap is the seal threshold: an insert that fills the
	// memtable to this size freezes it into a segment. Default 1024,
	// minimum 2.
	MemtableCap int
	// CompactEvery triggers a compaction when the sealed-segment count
	// reaches it. 0 disables auto-compaction (Compact stays available).
	CompactEvery int
	// Synchronous runs triggered compactions inline on the mutating call
	// instead of on the background worker. Mutations get compaction
	// latency spikes, but the structure evolves deterministically with the
	// operation sequence — what the churn tests and the annsload -compare
	// harness need.
	Synchronous bool
	// WALPath enables the write-ahead log at that path: appended (and
	// fsynced, per WALSyncEvery) before a mutation is acknowledged,
	// replayed by NewMutable/LoadMutable on boot, truncated after a
	// persisted snapshot. Empty disables durability.
	WALPath string
	// WALSyncEvery is the fsync cadence: 1 (the default) syncs every
	// record, n > 1 every n-th, negative never.
	WALSyncEvery int
	// SnapshotPath, when set, makes every completed compaction persist
	// the full tier state there (written to a temp file, atomically
	// renamed) and then truncate the WAL.
	SnapshotPath string
}

func (c MutableConfig) withDefaults() (MutableConfig, error) {
	if c.MemtableCap == 0 {
		c.MemtableCap = 1024
	}
	if c.MemtableCap < 2 {
		return c, errors.New("anns: MutableConfig.MemtableCap must be at least 2")
	}
	if c.CompactEvery < 0 {
		return c, errors.New("anns: MutableConfig.CompactEvery must not be negative")
	}
	if c.WALSyncEvery == 0 {
		c.WALSyncEvery = 1
	}
	return c, nil
}

// MutableStats is the tier's observable state, surfaced on /statsz.
type MutableStats struct {
	// LiveN is the number of live (inserted or base, not deleted) points.
	LiveN int
	// Memtable is the current unsealed entry count; Sealed the sealed
	// segment count awaiting compaction.
	Memtable, Sealed int
	// Compactions counts the base rebuilds swapped in.
	Compactions int64
	// SegmentsBuilt is always 0: sealed segments are never built.
	//
	// Deprecated: kept for source compatibility; read Sealed and
	// Compactions instead.
	SegmentsBuilt int64
	// Tombstones counts deletes not yet applied by compaction.
	Tombstones int
	// NextID is the next insert's ID.
	NextID uint64
	// Inserts and Deletes are accepted-mutation totals since boot.
	Inserts, Deletes int64
	// WALReplayed is the record count replayed at boot; WALBytes the
	// current log size (0 without a WAL).
	WALReplayed int
	WALBytes    int64
	// ReplicationOffset is the count of mutations applied since the base
	// was built — the sequence number of the last applied frame (§11).
	ReplicationOffset uint64
	// LastCompactError is the most recent failed compaction's error
	// (empty when none failed).
	LastCompactError string
	// Generation is the current index generation (see Generation).
	Generation uint64
}

// CompactionSeed derives the public-randomness seed of compaction epoch
// e from the tier's user seed. It is exported so an oracle (or an
// operator) can rebuild exactly the base the tier built: the churn
// tests' byte-identical equivalence rests on it being a pure function
// of (seed, epoch).
func CompactionSeed(seed, epoch uint64) uint64 {
	return splitSeed(seed^0xc0a9ac7105eed002, int(epoch))
}

// NewMutable builds a mutable tier over base (which may be nil to start
// empty — the first compaction creates a base). The base's points keep
// their build positions as IDs; inserts are assigned IDs from
// base.Len() up. When cfg.WALPath is set, the log is opened and replayed
// before NewMutable returns, so the returned index already reflects
// every durable mutation.
func NewMutable(base *Index, cfg MutableConfig) (*MutableIndex, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if base != nil && cfg.Options.Dimension == 0 {
		cfg.Options = base.Options()
	}
	opts, err := cfg.Options.normalized()
	if err != nil {
		return nil, err
	}
	if base != nil && base.Options().Dimension != opts.Dimension {
		return nil, fmt.Errorf("anns: base dimension %d != configured dimension %d",
			base.Options().Dimension, opts.Dimension)
	}
	mx := &MutableIndex{
		cfg:     cfg,
		opts:    opts,
		mem:     segment.NewMemtable(),
		tomb:    segment.NewIDSet(),
		present: segment.NewIDSet(),
	}
	if base != nil {
		mx.base = base
		mx.nextID = uint64(base.Len())
		for id := uint64(0); id < mx.nextID; id++ {
			mx.present.Add(id)
		}
	}
	return mx, mx.start()
}

// start replays the WAL (if configured) and launches the background
// worker; shared by NewMutable and LoadMutable.
func (mx *MutableIndex) start() error {
	if mx.cfg.WALPath != "" {
		mx.replaying = true
		wal, replayed, err := segment.OpenWAL(mx.cfg.WALPath, mx.opts.Dimension, mx.cfg.WALSyncEvery, mx.applyWAL)
		mx.replaying = false
		if err != nil {
			return fmt.Errorf("anns: opening WAL: %w", err)
		}
		mx.wal = wal
		mx.walReplayed = replayed
	}
	if !mx.cfg.Synchronous {
		mx.tasks = make(chan func(), 64)
		mx.workerDone = make(chan struct{})
		go func() {
			defer close(mx.workerDone)
			for f := range mx.tasks {
				f()
			}
		}()
	}
	return nil
}

// applyWAL replays one durable mutation during boot. Strict ID checks
// catch a WAL paired with the wrong base state.
func (mx *MutableIndex) applyWAL(op segment.Op) error {
	switch op.Kind {
	case segment.OpInsert:
		if op.ID != mx.nextID {
			return fmt.Errorf("insert id %d does not continue this base (want %d)", op.ID, mx.nextID)
		}
		mx.mu.Lock()
		compact := mx.applyInsertLocked(op.ID, op.Point)
		mx.mu.Unlock()
		mx.follow(compact)
	case segment.OpDelete:
		if !mx.present.Has(op.ID) {
			return fmt.Errorf("delete of id %d which is not live under this base", op.ID)
		}
		mx.mu.Lock()
		mx.applyDeleteLocked(op.ID)
		mx.mu.Unlock()
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

// run hands f to the background worker, or runs it inline in synchronous
// mode and during replay. After Close it is dropped (the work — a
// compaction — is an optimization, never a promise).
func (mx *MutableIndex) run(f func()) {
	if mx.tasks == nil {
		f()
		return
	}
	mx.runMu.RLock()
	defer mx.runMu.RUnlock()
	if mx.stopped {
		return
	}
	mx.pending.Add(1)
	mx.tasks <- func() {
		defer mx.pending.Done()
		f()
	}
}

// follow dispatches the compaction an insert triggered.
func (mx *MutableIndex) follow(compact bool) {
	if compact {
		mx.run(func() {
			if err := mx.Compact(); err != nil {
				mx.mu.Lock()
				mx.lastCompactErr = err.Error()
				mx.compactQueued = false
				mx.mu.Unlock()
			}
		})
	}
}

// Insert adds p (retained, not copied) and returns its assigned ID. With
// a WAL the mutation is durable before Insert returns. Filling the
// memtable seals it; in synchronous mode a compaction it triggers
// completes before Insert returns.
func (mx *MutableIndex) Insert(p Point) (uint64, error) {
	if len(p) != bitvec.Words(mx.opts.Dimension) {
		return 0, fmt.Errorf("anns: point has %d words, want %d for dimension %d",
			len(p), bitvec.Words(mx.opts.Dimension), mx.opts.Dimension)
	}
	mx.mu.Lock()
	if mx.closed {
		mx.mu.Unlock()
		return 0, errors.New("anns: mutable index is closed")
	}
	id := mx.nextID
	if mx.wal != nil {
		if err := mx.wal.Append(segment.Op{Kind: segment.OpInsert, ID: id, Point: p}); err != nil {
			mx.mu.Unlock()
			return 0, fmt.Errorf("anns: WAL append: %w", err)
		}
	}
	compact := mx.applyInsertLocked(id, p)
	mx.mu.Unlock()
	mx.follow(compact)
	return id, nil
}

// applyInsertLocked applies one insert, sealing a full memtable, and
// reports whether the seal should trigger a compaction.
func (mx *MutableIndex) applyInsertLocked(id uint64, p Point) bool {
	mx.gen.Add(1)
	mx.replSeq++
	mx.nextID = id + 1
	mx.mem.Append(id, p)
	mx.present.Add(id)
	mx.inserts++
	if mx.mem.Len() >= mx.cfg.MemtableCap {
		mx.gen.Add(1)
		mx.segs = append(mx.segs, mx.mem)
		mx.mem = segment.NewMemtable()
	}
	if mx.cfg.CompactEvery > 0 && len(mx.segs) >= mx.cfg.CompactEvery && !mx.compactQueued {
		mx.compactQueued = true
		return true
	}
	return false
}

// Delete tombstones the point with the given ID, reporting whether it
// was live. Deleted points stop being returned immediately (the scans
// skip them, the merge filters the base's answer) and are physically
// dropped by the next compaction.
func (mx *MutableIndex) Delete(id uint64) (bool, error) {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if mx.closed {
		return false, errors.New("anns: mutable index is closed")
	}
	if !mx.present.Has(id) {
		return false, nil
	}
	if mx.wal != nil && !mx.replaying {
		if err := mx.wal.Append(segment.Op{Kind: segment.OpDelete, ID: id}); err != nil {
			return false, fmt.Errorf("anns: WAL append: %w", err)
		}
	}
	mx.applyDeleteLocked(id)
	return true, nil
}

func (mx *MutableIndex) applyDeleteLocked(id uint64) {
	mx.gen.Add(1)
	mx.replSeq++
	mx.present.Remove(id)
	mx.tomb.Add(id)
	mx.deletes++
}

// errEmptyIndex is returned by Query on a tier holding no points at all.
var errEmptyIndex = errors.New("anns: mutable index is empty")

// Query returns an approximate nearest neighbor over the live points:
// the per-tier answers (the base runs the paper's scheme, the sealed
// segments and the memtable exact scans) folded with the shard-merge
// accounting. Result.Index is the point's stable ID.
func (mx *MutableIndex) Query(x Point) (Result, error) {
	c := core.AcquireQueryCtx()
	defer core.ReleaseQueryCtx(c)
	return mx.search(x, c)
}

// QueryScratch is Query on a caller-held scratchpad.
func (mx *MutableIndex) QueryScratch(x Point, sc *Scratch) (Result, error) {
	return mx.search(x, sc.c)
}

// tierReplies collects one reply per non-empty tier. idmaps[i] translates
// reply i's local answer index to a point ID (nil = the local index
// already is the ID). ask runs the scheme on the base and scan the exact
// tiers (sealed segments, then the memtable); both must fill Result
// accounting.
func (mx *MutableIndex) tierReplies(
	ask func(ix *Index) (Result, bool),
	scan func(m *segment.Memtable) (Result, bool),
) ([]ShardReply, [][]uint64) {
	replies := make([]ShardReply, 0, len(mx.segs)+2)
	idmaps := make([][]uint64, 0, len(mx.segs)+2)
	if mx.base != nil {
		res, ok := ask(mx.base)
		// A base candidate that is tombstoned is filtered at merge time:
		// the base's accounting stands, its answer does not. (The scans
		// skip tombstoned entries themselves.)
		if ok && res.Index >= 0 {
			id := uint64(res.Index)
			if mx.baseIDs != nil {
				id = mx.baseIDs[res.Index]
			}
			ok = !mx.tomb.Has(id)
		}
		replies = append(replies, ShardReply{Result: res, OK: ok})
		idmaps = append(idmaps, mx.baseIDs)
	}
	addScan := func(m *segment.Memtable) {
		res, ok := scan(m)
		replies = append(replies, ShardReply{Result: res, OK: ok})
		idmaps = append(idmaps, m.IDs())
	}
	for _, m := range mx.segs {
		addScan(m)
	}
	if mx.mem.Len() > 0 {
		addScan(mx.mem)
	}
	return replies, idmaps
}

// foldTiers merges tierReplies' output with the shard-merge accounting,
// reporting the winner by point ID.
func foldTiers(replies []ShardReply, idmaps [][]uint64) Result {
	return MergeShardReplies(replies, func(s, j int) int {
		if idmaps[s] == nil {
			return j
		}
		return int(idmaps[s][j])
	})
}

// scanResult converts an exact scan into the shared Result accounting:
// one parallel round of one probe per scanned entry.
func scanResult(r segment.ScanResult) (Result, bool) {
	res := Result{Index: r.Pos, Distance: r.Dist, Probes: r.Scanned, MaxParallel: r.Scanned}
	if r.Scanned > 0 {
		res.Rounds = 1
	}
	if !r.Found {
		res.Index, res.Distance = -1, -1
	}
	return res, r.Found
}

func (mx *MutableIndex) search(x Point, c *core.QueryCtx) (Result, error) {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	replies, idmaps := mx.tierReplies(
		func(ix *Index) (Result, bool) {
			res, err := ix.queryCtx(x, c)
			return res, err == nil
		},
		func(m *segment.Memtable) (Result, bool) {
			return scanResult(m.Scan(x, mx.tomb))
		},
	)
	if len(replies) == 0 {
		return Result{Index: -1, Distance: -1}, errEmptyIndex
	}
	out := foldTiers(replies, idmaps)
	if out.Index < 0 {
		return out, errors.New("anns: query failed")
	}
	return out, nil
}

// QueryNear answers the λ-near-neighbor decision over the live points
// with the same fan-out: the base runs the paper's single-probe
// decision, exact tiers answer YES with their nearest live point when it
// lies within Gamma·lambda. NO only when every tier answers NO.
func (mx *MutableIndex) QueryNear(x Point, lambda float64) (Result, error) {
	c := core.AcquireQueryCtx()
	defer core.ReleaseQueryCtx(c)
	return mx.searchNear(x, lambda, c)
}

// QueryNearScratch is QueryNear on a caller-held scratchpad.
func (mx *MutableIndex) QueryNearScratch(x Point, lambda float64, sc *Scratch) (Result, error) {
	return mx.searchNear(x, lambda, sc.c)
}

func (mx *MutableIndex) searchNear(x Point, lambda float64, c *core.QueryCtx) (Result, error) {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	answered := false
	var firstErr error
	replies, idmaps := mx.tierReplies(
		func(ix *Index) (Result, bool) {
			res, err := ix.queryNearCtx(x, lambda, c)
			if err == nil {
				answered = true // NO is an answer; an error is not
			} else if firstErr == nil {
				firstErr = err
			}
			return res, err == nil && res.Index >= 0
		},
		func(m *segment.Memtable) (Result, bool) {
			res, found := scanResult(m.Scan(x, mx.tomb))
			answered = true
			if found && float64(res.Distance) > mx.opts.Gamma*lambda {
				// Nearest live entry is out of range: the exact answer is NO.
				res.Index, res.Distance = -1, -1
				found = false
			}
			return res, found
		},
	)
	out := foldTiers(replies, idmaps)
	if out.Index < 0 {
		if answered || len(replies) == 0 {
			return out, nil // the NO answer (vacuously true when empty)
		}
		return out, fmt.Errorf("anns: near query failed on every tier: %w", firstErr)
	}
	return out, nil
}

// BatchQueryContext answers many queries over a fixed worker pool with
// the same semantics as the static index's batch entry point.
func (mx *MutableIndex) BatchQueryContext(ctx context.Context, xs []Point, workers int) []BatchResult {
	return batchRun(ctx, len(xs), workers, func(i int, sc *Scratch) (Result, error) {
		return mx.QueryScratch(xs[i], sc)
	})
}

// Len returns the live point count.
func (mx *MutableIndex) Len() int {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	return mx.present.Len()
}

// Options returns the tier's normalized build options.
func (mx *MutableIndex) Options() Options { return mx.opts }

// Generation returns the current index generation: a counter that advances
// on every mutation that can change a query's folded reply (insert,
// delete, seal, flush, compaction swap). It is the result cache's
// invalidation hook — a result computed at generation g is valid exactly
// while Generation() == g — and is lock-free so the serving hot path can
// read it per request. Generations are process-local: they
// restart at zero on boot and are not persisted.
func (mx *MutableIndex) Generation() uint64 { return mx.gen.Load() }

// MutableStats returns the tier's current counters (served on /statsz).
func (mx *MutableIndex) MutableStats() MutableStats {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	st := MutableStats{
		LiveN:             mx.present.Len(),
		Memtable:          mx.mem.Len(),
		Sealed:            len(mx.segs),
		Compactions:       mx.compactions,
		Tombstones:        mx.tomb.Len(),
		NextID:            mx.nextID,
		Inserts:           mx.inserts,
		Deletes:           mx.deletes,
		WALReplayed:       mx.walReplayed,
		LastCompactError:  mx.lastCompactErr,
		Generation:        mx.gen.Load(),
		ReplicationOffset: mx.replSeq,
	}
	if mx.wal != nil {
		st.WALBytes = mx.wal.Size()
	}
	return st
}

// WaitIdle blocks until all currently queued background work (triggered
// compactions) has finished.
func (mx *MutableIndex) WaitIdle() { mx.pending.Wait() }

// Flush seals the current memtable (if non-empty) into a segment below
// the cap; like every sealed segment it answers by exact scan until the
// next compaction folds it. It exists so a compaction can capture every
// point ("annsctl compact" folds base + WAL into one snapshot);
// steady-state serving never needs it.
func (mx *MutableIndex) Flush() {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if mx.mem.Len() == 0 {
		return
	}
	mx.gen.Add(1)
	mx.segs = append(mx.segs, mx.mem)
	mx.mem = segment.NewMemtable()
}

// Base returns the current base index and its ID mapping (ids[j] is the
// stable ID of base row j; a nil mapping means identity). ok is false
// when the tier has no base yet. After Flush + Compact the base holds
// every live point, which is how the offline compactor flattens a tier
// into a plain index snapshot.
func (mx *MutableIndex) Base() (ix *Index, ids []uint64, ok bool) {
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	return mx.base, mx.baseIDs, mx.base != nil
}

// Compact folds the base and every currently sealed segment into a
// fresh static build over the live points (tombstones applied, IDs
// preserved in ascending order, seed CompactionSeed(seed, epoch)) and
// swaps it in atomically. Queries racing the swap see either the old
// tiers or the new base, never a mix. With a SnapshotPath the new state
// is persisted and the WAL truncated. Mutations arriving during the
// rebuild are untouched: the memtable is not captured, and tombstones
// added mid-rebuild survive the swap.
func (mx *MutableIndex) Compact() error {
	mx.compactMu.Lock()
	defer mx.compactMu.Unlock()

	mx.mu.RLock()
	base, baseIDs := mx.base, mx.baseIDs
	captured := append([]*segment.Memtable(nil), mx.segs...)
	t0 := mx.tomb.Clone()
	e := mx.epoch
	replaying := mx.replaying
	mx.mu.RUnlock()

	if base == nil && len(captured) == 0 {
		mx.mu.Lock()
		mx.compactQueued = false
		mx.mu.Unlock()
		return nil
	}

	var ids []uint64
	var pts []Point
	keep := func(id uint64, p Point) {
		if !t0.Has(id) {
			ids = append(ids, id)
			pts = append(pts, p)
		}
	}
	if base != nil {
		for j, p := range base.points() {
			id := uint64(j)
			if baseIDs != nil {
				id = baseIDs[j]
			}
			keep(id, p)
		}
	}
	for _, seg := range captured {
		segIDs, segPts := seg.IDs(), seg.Points()
		for j := range segIDs {
			keep(segIDs[j], segPts[j])
		}
	}
	// Tiers are already ID-ascending (the base holds the oldest IDs, and
	// segments seal in insertion order), but the rebuild's input order is
	// part of its identity, so sort defensively.
	sort.Sort(&idPointSort{ids: ids, pts: pts})

	var newBase *Index
	if len(pts) >= 2 {
		opts := mx.opts
		opts.Seed = CompactionSeed(mx.opts.Seed, e)
		var err error
		newBase, err = Build(pts, opts)
		if err != nil {
			return fmt.Errorf("anns: compaction rebuild: %w", err)
		}
	}

	mx.mu.Lock()
	if newBase != nil {
		mx.base, mx.baseIDs = newBase, ids
		mx.segs = mx.segs[len(captured):]
	} else {
		// Fewer than 2 live points cannot carry a static build: the
		// residue lives on as a scan-only segment (or nothing at all).
		mx.base, mx.baseIDs = nil, nil
		rest := mx.segs[len(captured):]
		if len(ids) > 0 {
			residue := segment.NewMemtableFrom(ids, pts)
			mx.segs = append([]*segment.Memtable{residue}, rest...)
		} else {
			mx.segs = rest
		}
	}
	mx.gen.Add(1)
	mx.tomb.AndNot(t0)
	mx.epoch = e + 1
	mx.compactions++
	mx.lastCompactErr = ""
	mx.compactQueued = false
	mx.mu.Unlock()

	if mx.cfg.SnapshotPath != "" && !replaying {
		if err := mx.persist(); err != nil {
			return fmt.Errorf("anns: persisting compaction snapshot: %w", err)
		}
	}
	return nil
}

// idPointSort sorts parallel (ids, pts) slices by ascending ID.
type idPointSort struct {
	ids []uint64
	pts []Point
}

func (s *idPointSort) Len() int           { return len(s.ids) }
func (s *idPointSort) Less(i, j int) bool { return s.ids[i] < s.ids[j] }
func (s *idPointSort) Swap(i, j int) {
	s.ids[i], s.ids[j] = s.ids[j], s.ids[i]
	s.pts[i], s.pts[j] = s.pts[j], s.pts[i]
}

// persist writes the full tier state to cfg.SnapshotPath (temp file +
// atomic rename) and truncates the WAL. It holds the read lock for the
// duration: mutations must be excluded (an insert landing between the
// snapshot encode and the WAL truncation would be lost on replay), but
// a shared lock already guarantees that — mutations and WAL appends all
// run under the write lock — while queries keep flowing through a
// potentially long encode+fsync. WAL.Size is the one field the stats
// path reads concurrently with the truncation, and it is atomic.
func (mx *MutableIndex) persist() error {
	tmp := mx.cfg.SnapshotPath + ".tmp"
	mx.mu.RLock()
	defer mx.mu.RUnlock()
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := mx.saveLocked(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, mx.cfg.SnapshotPath); err != nil {
		os.Remove(tmp)
		return err
	}
	if mx.wal != nil {
		return mx.wal.Truncate()
	}
	return nil
}

// TruncateWAL resets the write-ahead log to empty. Only call once the
// state it describes is durably captured elsewhere — it is the offline
// compactor's completion step after saving the merged snapshot. No-op
// without a WAL.
func (mx *MutableIndex) TruncateWAL() error {
	mx.mu.Lock()
	defer mx.mu.Unlock()
	if mx.wal == nil {
		return nil
	}
	return mx.wal.Truncate()
}

// Close stops the background worker (dropping queued optimization work),
// rejects further mutations, and closes the WAL. Queries against the
// final state remain valid.
func (mx *MutableIndex) Close() error {
	mx.mu.Lock()
	if mx.closed {
		mx.mu.Unlock()
		return nil
	}
	mx.closed = true
	mx.mu.Unlock()

	mx.runMu.Lock()
	mx.stopped = true
	mx.runMu.Unlock()
	mx.pending.Wait()
	if mx.tasks != nil {
		close(mx.tasks)
		<-mx.workerDone
	}
	if mx.wal != nil {
		return mx.wal.Close()
	}
	return nil
}
