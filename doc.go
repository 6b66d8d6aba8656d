// Package repro is a production-quality Go reproduction of
//
//	Mingmou Liu, Xiaoyin Pan, Yitong Yin.
//	"Randomized approximate nearest neighbor search with limited
//	adaptivity." SPAA 2016 (arXiv:1602.04421).
//
// The public API lives in package repro/anns; the experiment harness that
// regenerates the paper's theorem-level tradeoffs is repro/internal/eval,
// driven by `annsctl paper` — the one command that reproduces the paper.
// See DESIGN.md for the system inventory (§1) and for the experiment
// suite and its paper-vs-measured conventions (§4).
//
// On top of the library sits a three-layer serving subsystem:
//
//   - anns.ShardedIndex (sharding layer): partitions one logical
//     database across independently seeded shards, fans each query out
//     concurrently, and merges by Hamming distance while aggregating the
//     cell-probe accounting (rounds = max over shards, probes and max
//     parallelism summed), keeping the paper's adaptivity/efficiency
//     tradeoff observable at serving scale.
//   - repro/internal/server (service layer): an HTTP API (POST
//     /v1/query, /v1/batch, /v1/near; GET /healthz, /statsz). The read
//     endpoints are one front end (server.FrontEnd: decode, validate,
//     result cache, deadline, counters, tracing, encode) that calls a
//     Backend for the execute stage; the shard server's backend is a
//     bounded admission queue feeding a fixed worker pool, and
//     internal/router mounts the same front end over its own backend,
//     the shard scatter — so both tiers answer, count and trace a
//     request identically (DESIGN.md §13).
//   - cmd/annsd and cmd/annsload (load layer): the serving daemon over
//     generated or `annsctl gen` workloads, and a closed-loop / open-loop
//     (Poisson, target-QPS ramp) load harness reporting log-bucketed
//     latency histograms (internal/stats.LogHistogram: p50/p95/p99
//     within 4.4%, exact min/max, full shape), achieved QPS, recall,
//     and aggregate probe accounting. annsload -scenario replays named
//     operation-mix scenarios (internal/workload/scenario: zipfian /
//     hotspot / sequential key popularity over reads, inserts, and
//     deletes) compiled deterministically from -lseed, so two runs —
//     or the two servers of a -compare — see byte-identical streams.
//
// # Query execution model
//
// The whole query path, from the cell-probe simulator to the HTTP
// workers, runs on pooled execution contexts and binary cell addresses,
// so a warmed query allocates nothing:
//
//   - cellprobe.Addr is the binary cell address: a typed table tag
//     (T[i], aux[i], member[B], …) plus the packed payload words of the
//     sketch or query point. It is comparable (the result cache keys on
//     it) and its payload words key the lazy oracle memo exactly — no
//     string serialization anywhere on the probe path.
//   - cellprobe.QueryCtx owns one query's execution state: the staged
//     probe refs of the current round, the round's result words, the
//     Stats accounting, and (optionally) the transcript the Proposition
//     18 communication translation consumes. Algorithms stage a whole
//     round (Stage) and execute it at once (Flush), which is also how
//     limited adaptivity is enforced.
//   - core.QueryCtx wraps that with the per-level sketch scratch
//     (M_i·x, N_j·x), the shrinking-grid buffer, and the boosted-stats
//     accumulator. Contexts come from a process-wide sync.Pool; the
//     schemes' Query methods draw one per call, while the serving layers
//     (anns batch workers, the HTTP worker pool) hold one per worker via
//     anns.Scratch and thread it through every query they serve.
//   - A batch under the non-boosted Algorithm 1 runs round-synchronously
//     in chunks of 8 (DESIGN.md §14): inside a round every address is
//     known before anything is read, so the chunk's queries stage round
//     r together, one joint flush (cellprobe.FlushEach) groups the
//     probes by table, and each table resolves its cold cells with one
//     multi-key scan (bitvec.Block.FirstWithinEach — AVX-512 with lanes
//     = keys where the CPU has it, the loop over FirstWithin elsewhere;
//     /statsz scan_kernel says which). Algorithm 1 is stated once, as
//     start/stage/advance over state in core.QueryCtx, and driven by
//     QueryWithCtx for one query and QueryEachWithCtx for a chunk; every
//     query's answer and accounting are those of running it alone. The
//     single-query path takes none of this.
//
// The pooling changes no model quantity: accounting invariants are
// unchanged (per query: Rounds, Probes, ProbesPerRound, BitsRead and
// AddrBitsSent are byte-identical to the pre-pooling engine; across
// shards and boosted repetitions: rounds = max, probes = sum). Alloc
// ceilings are pinned, exactly, by TestAllocs* in packages anns,
// internal/core and internal/sketch.
//
// # Index lifecycle
//
// The paper's data structure is static after preprocessing, so the
// storage layer separates the three phases — build once, snapshot,
// serve anywhere (DESIGN.md §5):
//
//   - Build: anns.Build and anns.BuildSharded preprocess eagerly over a
//     worker pool (Options.BuildWorkers, default GOMAXPROCS). Every
//     component lands in flat, pointer-free storage — the database, the
//     sketch matrices, and the per-level database sketches are
//     contiguous bitvec.Blocks, and the membership tables share one
//     binary-keyed index with no per-entry key strings. Randomness is
//     split per matrix, so any worker count builds a bit-identical
//     index. core.BuildIndex stays lazy for the experiment harness.
//   - Snapshot: anns.SaveIndex/SaveSharded write the flat arrays
//     wholesale into the versioned, checksummed binary format of
//     internal/snapshot (magic, format version, paper parameters,
//     per-section lengths, CRC-32). LoadIndex/LoadSharded/LoadAny
//     verify and rebind them; a loaded index answers with results and
//     probe accounting byte-identical to the index it was saved from.
//     Version mismatches, corruption, and truncation fail loudly
//     (snapshot.ErrVersion/ErrChecksum, and the typed snapshot.ErrFormat
//     for malformed or truncated files); layout changes to existing
//     kinds bump snapshot.FormatVersion and the floor MinFormatVersion
//     (rebuild-and-re-save, never in-place migration), while additive
//     changes keep older files loading.
//   - Serve: annsctl build writes snapshots offline; annsd -snapshot
//     boots from one in milliseconds instead of re-preprocessing, annsd
//     -save-snapshot persists a fresh build, and /statsz reports
//     index_source, snapshot_version, index_load_ms, and mapped_bytes.
//     BenchmarkOpenSnapshot in package anns times the mapped open, the
//     heap load and the rebuild of one saved index side by side.
//   - Zero-copy serve: anns.OpenSnapshot(path, mode) opens a snapshot
//     under an explicit anns.LoadMode — LoadHeap is the copying load
//     above, LoadMmap maps the file and serves bitvec blocks as views
//     over the mapped pages (no database/matrix/sketch copies; open is
//     gated >=100x faster than the heap load), and LoadAuto prefers
//     the mapping with a heap fallback only when the platform lacks
//     mmap (the typed FallbackReason says why). The returned Loaded
//     owns the mapping and the index borrows it: keep Loaded alive for
//     the index's lifetime and Close only after the last query (annsd
//     -mmap never closes; it verifies the checksum in the background
//     and dies on mismatch). The mutable tier stays on the heap — it
//     owns, rewrites, and frees its storage — so OpenSnapshot rejects
//     mutable snapshots toward LoadMutable. DESIGN.md §9 has the full
//     lifecycle and CRC policy.
//
// # Mutable tier
//
// anns.MutableIndex layers online inserts and deletes over the static
// core (DESIGN.md §7): inserts land in an exact brute-force memtable
// that seals into immutable segments (scanned the same exact way),
// deletes tombstone stable point IDs, queries fan out over {base,
// segments, memtable} and fold with MergeShardReplies (rounds = max,
// probes = sum — the same accounting the sharded tier uses), and a
// background compactor rebuilds the base from the live points and swaps
// it atomically; that rebuild is the tier's only index build. A
// CRC-framed write-ahead log makes mutations durable across restarts
// (replayed on boot, truncated on snapshot). Serve it with annsd
// -mutable -wal, drive mixed read/write load with annsload -write-ratio,
// and fold a WAL back into one snapshot offline with annsctl compact.
//
// # Distributed tier
//
// internal/router + cmd/annsrouter scale the same contract across
// machines (DESIGN.md §6): annsctl shard-split writes per-shard
// snapshots plus a placement manifest, each replica of a shard position
// boots one snapshot, and the router scatter-gathers with
// health-probe-driven replica membership, latency-quantile hedging, and
// bounded failover — answers stay byte-identical to a single process
// over the same corpus, accounting included. With mutable replicas
// (annsd -mutable -base-snapshot shard-s.snap -wal …) the router also
// serves writes (DESIGN.md §11): each mutation routes to the shard's
// designated primary (manifest format v2 records the designation and a
// placement epoch), the primary's WAL frame streams through the router
// to the other replicas via /v1/replicate with /v1/frames catch-up,
// -durability picks primary-fsync vs quorum acks, and a dead primary is
// replaced by the max-offset survivor with an epoch bump and an
// in-place manifest rewrite. internal/chaos + cmd/annschaos hold the
// whole tier to byte-identical answers under a seeded fault catalog —
// gray failures, partitions, corruption, WAL tears, primary kills —
// replayable from one root seed (DESIGN.md §8). OPERATIONS.md is the
// operator runbook: deploying a shard set, reading /statsz, failover
// and offset convergence, the WAL/snapshot/compaction lifecycle.
//
// # Result cache
//
// annsd -cache N (and annsrouter -cache N) put a sharded, bounded LRU
// (internal/qcache) in front of the query path, keyed by collision-free
// cellprobe.Addr fingerprints of the request — a hit answers from
// memory, bypassing admission and the worker pool, and is provably the
// reply a fresh execution would produce: entries are stamped with the
// index generation observed before execution, every mutation bumps
// anns.MutableIndex.Generation(), and stale entries become unreachable
// in O(1). /statsz reports hits, misses, hit_rate, evictions, and
// invalidations; annsload -compare proves cached and uncached servers
// byte-identical under mutation churn, and the chaos harness re-proves
// it under the gray-failure catalog. What the cache is worth is the
// whole-path benchmark's routed-zipf-cached workload against
// routed-repeat (benchmark/). DESIGN.md §10 has the key derivation and
// the epoch-invalidation argument.
//
// See README.md for the quickstart and binary inventory,
// internal/server/README.md for the wire format and a copy-paste
// serving session, internal/router/README.md for the distributed
// tier's failure model, and OPERATIONS.md for the operator runbook.
package repro
