// Command annsd is the query-serving daemon. It serves a cell-probe
// index over HTTP via internal/server; the index either comes from a
// snapshot file (load on boot, no preprocessing) or is built in-process
// over a generated workload (or an `annsctl gen` dataset) — and a fresh
// build can be saved for the next boot.
//
// Usage:
//
//	annsd -addr :7080 -shards 4 -k 3 -kind planted -d 512 -n 4096 -q 512
//	annsd -addr :7080 -in data.bin -shards 8 -algo soph -k 4
//	annsd -addr :7080 -kind planted -d 512 -n 4096 -save-snapshot idx.snap
//	annsd -addr :7080 -snapshot idx.snap
//	annsd -addr :7080 -mutable -wal wal.log -kind planted -d 512 -n 4096
//	annsd -addr :7080 -mutable -snapshot state.snap -wal wal.log
//	annsd -addr :7080 -mutable -cache 4096 -kind planted -d 512 -n 4096
//	annsd -addr :7080 -mutable -shards 2 -kind planted -d 512 -n 4096
//	annsd -addr :7080 -mutable -base-snapshot shard-0.snap -wal wal.log
//
// -cache N puts an N-entry query-result cache (internal/qcache) in front
// of the worker pool: repeated queries under skewed traffic answer from
// memory, and every mutation advances the index generation so a cached
// reply is never served stale — answers stay byte-identical to an
// uncached server (DESIGN.md §10).
//
// With -mutable the process serves the mutable tier (DESIGN.md §7): the
// base index (built from the workload flags, or loaded from -snapshot,
// which then also receives compaction snapshots) accepts online
// /v1/insert and /v1/delete; -wal makes mutations durable across
// restarts (replayed on boot, truncated when a compaction persists).
// The mutable tier's flags (-wal, -wal-sync, -memtable, -compact-every,
// -mutable-sync, -base-snapshot) are refused without -mutable.
//
// Two mutable variants serve the replicated write tier (DESIGN.md §11):
// -mutable with an explicit -shards S serves one MutableSharded process
// — the single-process reference a routed replicated cluster must match
// byte for byte (`annsload -compare`); -mutable -base-snapshot boots a
// *replica*: the base index loads from an `annsctl shard-split` shard
// file that is never rewritten, mutations arrive via /v1/insert,
// /v1/delete, and /v1/replicate, and only the -wal accumulates state —
// so the replication offset (mutations since base) survives restarts by
// WAL replay. -snapshot's compaction persistence is deliberately
// unavailable in this mode: persisting would truncate the WAL and
// desynchronize offsets across the replica set.
//
// Endpoints: POST /v1/query, /v1/batch, /v1/near, /v1/insert,
// /v1/delete; GET /healthz, /statsz (which reports the index source —
// built vs snapshot — load time, and the mutable tier's counters).
// Drive it with cmd/annsload; build snapshots offline with cmd/annsctl
// (and fold a WAL back into one with `annsctl compact`).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/anns"
	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// Structured logging (log/slog JSON on stderr) replaces the scattered
// log.Printf: boot lines, slow queries, and sampled traces all land in
// one greppable stream.
var logger = obs.NewLogger(os.Stderr)

func infof(format string, args ...any) { logger.Info(fmt.Sprintf(format, args...)) }

func fatalf(format string, args ...any) {
	logger.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":7080", "listen address")
	in := flag.String("in", "", "dataset file written by annsctl gen (overrides generator flags)")
	spec := workload.DefaultSpec()
	spec.RegisterFlags(flag.CommandLine)

	idxf := anns.DefaultBuildFlags()
	idxf.RegisterFlags(flag.CommandLine)
	snapPath := flag.String("snapshot", "", "serve the index from this snapshot file instead of building")
	mmapServe := flag.Bool("mmap", false, "serve the -snapshot zero-copy via mmap (falls back to the heap loader with a logged reason if the file cannot be mapped)")
	savePath := flag.String("save-snapshot", "", "after building, save the index snapshot here")

	mutable := flag.Bool("mutable", false, "serve the mutable tier: online /v1/insert and /v1/delete over the base index")
	baseSnap := flag.String("base-snapshot", "", "mutable replica boot: immutable base index (an `annsctl shard-split` shard file) that is never rewritten; pair with -wal so the replication offset survives restarts")
	walPath := flag.String("wal", "", "mutable tier write-ahead log (durable mutations, replayed on boot)")
	walSync := flag.Int("wal-sync", 1, "fsync the WAL every n records (0 = never, let the OS decide)")
	memtableCap := flag.Int("memtable", 1024, "mutable memtable seal threshold")
	compactEvery := flag.Int("compact-every", 4, "sealed segments that trigger background compaction (0 = manual)")
	mutableSync := flag.Bool("mutable-sync", false, "run triggered compactions inline on the mutating request (deterministic; for compare harnesses)")

	cacheEntries := flag.Int("cache", 0, "query-result cache capacity in entries (0 = disabled); invalidated by index generation, so cached answers are always byte-identical to fresh ones")
	workers := flag.Int("workers", 0, "request worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 1024, "admission queue depth")
	batchWorkers := flag.Int("batch-workers", 0, "per-batch worker pool (0 = GOMAXPROCS)")
	maxBatch := flag.Int("max-batch", 4096, "max points per /v1/batch request")
	timeout := flag.Duration("timeout", 2*time.Second, "default per-request deadline")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests whose trace is logged (0..1)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "log any request at or above this duration in full (0 = disabled)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.Parse()

	if err := checkMutableFlags(flag.CommandLine, *mutable); err != nil {
		fatalf("annsd: %v", err)
	}
	if *mmapServe {
		if *snapPath == "" {
			fatalf("annsd: -mmap requires -snapshot")
		}
		if *mutable {
			fatalf("annsd: -mmap applies to the immutable serving tiers; the mutable tier owns its memory (see DESIGN.md §9)")
		}
	}

	var idx server.Searcher
	var dim int
	var mclose interface{ Close() error } // the mutable tier, whichever shape
	info := server.IndexInfo{Source: "built"}

	loadInstance := func() *workload.Instance {
		var inst *workload.Instance
		var err error
		if *in != "" {
			inst, err = dataset.Load(*in)
		} else {
			inst, err = spec.Generate()
		}
		if err != nil {
			fatalf("annsd: %v", err)
		}
		infof("workload: %s", inst)
		return inst
	}

	shardsSet := false
	flag.Visit(func(fl *flag.Flag) { shardsSet = shardsSet || fl.Name == "shards" })

	if *mutable {
		if *savePath != "" {
			fatalf("annsd: -mutable persists through -snapshot; -save-snapshot is not supported")
		}
		walSyncEvery := *walSync
		if walSyncEvery == 0 {
			// CLI contract: 0 = never fsync. The config's zero value means
			// "default" (every record), so translate.
			walSyncEvery = -1
		}
		mcfg := anns.MutableConfig{
			MemtableCap:  *memtableCap,
			CompactEvery: *compactEvery,
			Synchronous:  *mutableSync,
			WALPath:      *walPath,
			WALSyncEvery: walSyncEvery,
			SnapshotPath: *snapPath,
		}
		switch {
		case shardsSet && idxf.Shards > 1:
			// Single-process sharded mutable reference (DESIGN.md §11): the
			// oracle a routed replicated cluster must match byte for byte.
			if *snapPath != "" || *baseSnap != "" {
				fatalf("annsd: -mutable -shards builds from the workload flags; snapshots are not supported")
			}
			mcfg.SnapshotPath = ""
			start := time.Now()
			inst := loadInstance()
			points := make([]anns.Point, len(inst.DB))
			copy(points, inst.DB)
			msx, err := anns.BuildMutableSharded(points, idxf.Shards, idxf.For(inst.D), mcfg)
			if err != nil {
				fatalf("annsd: %v", err)
			}
			info.LoadDuration = time.Since(start)
			st := msx.MutableStats()
			dim, idx, mclose = inst.D, msx, msx
			infof("mutable sharded tier: %d shards over n=%d in %v; wal=%q (per-shard suffixes)",
				msx.Shards(), st.LiveN, info.LoadDuration.Round(time.Millisecond), *walPath)
		case *baseSnap != "":
			// Replica boot: immutable base + WAL only. No SnapshotPath — a
			// compaction persist would truncate the WAL and desync this
			// replica's offset from its peers.
			if *snapPath != "" {
				fatalf("annsd: -base-snapshot and -snapshot are mutually exclusive (a replica never rewrites its base; see DESIGN.md §11)")
			}
			mcfg.SnapshotPath = ""
			start := time.Now()
			f, err := os.Open(*baseSnap)
			if err != nil {
				fatalf("annsd: %v", err)
			}
			base, err := anns.LoadIndex(f)
			f.Close()
			if err != nil {
				fatalf("annsd: loading base snapshot %s: %v", *baseSnap, err)
			}
			mx, err := anns.NewMutable(base, mcfg)
			if err != nil {
				fatalf("annsd: %v", err)
			}
			info = server.IndexInfo{
				Source:          "snapshot",
				SnapshotVersion: snapshotFileVersion(*baseSnap),
				LoadDuration:    time.Since(start),
				Path:            *baseSnap,
			}
			st := mx.MutableStats()
			dim, idx, mclose = mx.Options().Dimension, mx, mx
			infof("mutable replica: base %s (n=%d) + wal=%q replayed=%d, offset=%d in %v",
				*baseSnap, st.LiveN, *walPath, st.WALReplayed, st.ReplicationOffset,
				info.LoadDuration.Round(time.Millisecond))
		default:
			mx := bootMutableSingle(&mcfg, *snapPath, loadInstance, idxf, &info)
			st := mx.MutableStats()
			dim, idx, mclose = mx.Options().Dimension, mx, mx
			infof("mutable tier: n=%d (memtable %d, %d sealed, %d tombstones) in %v; wal=%q replayed=%d",
				st.LiveN, st.Memtable, st.Sealed, st.Tombstones,
				info.LoadDuration.Round(time.Millisecond), *walPath, st.WALReplayed)
		}
	} else if *snapPath != "" {
		if *savePath != "" {
			fatalf("annsd: -snapshot and -save-snapshot are mutually exclusive")
		}
		start := time.Now()
		mode := anns.LoadHeap
		if *mmapServe {
			mode = anns.LoadAuto
		}
		loaded, err := anns.OpenSnapshot(*snapPath, mode)
		if err != nil {
			fatalf("annsd: loading snapshot %s: %v", *snapPath, err)
		}
		// The mapping (when mmap-backed) stays open for the life of the
		// process: the served index borrows its storage from it.
		single, sharded := loaded.Index, loaded.Sharded
		source := "snapshot"
		if loaded.Source == "mmap" {
			source = "mmap"
		}
		if loaded.FallbackReason != "" {
			infof("snapshot: mmap unavailable (%s); serving from the heap loader", loaded.FallbackReason)
		}
		info = server.IndexInfo{
			Source:          source,
			SnapshotVersion: snapshotFileVersion(*snapPath),
			LoadDuration:    time.Since(start),
			Path:            *snapPath,
			MappedBytes:     loaded.MappedBytes,
		}
		if loaded.Source == "mmap" {
			// The zero-copy open validates structure only; run the full
			// CRC sweep in the background so boot stays O(headers) but a
			// corrupt file is still fatal, just asynchronously.
			go func() {
				if err := loaded.VerifyChecksum(); err != nil {
					fatalf("annsd: snapshot %s failed post-boot checksum verification: %v", *snapPath, err)
				}
				infof("snapshot: background checksum verified (%d mapped bytes)", loaded.MappedBytes)
			}()
		}
		if sharded != nil {
			idx, dim = sharded, sharded.Options().Dimension
			infof("index: loaded from snapshot %s in %v (source %s, format v%d, %d shards over n=%d, k=%d)",
				*snapPath, info.LoadDuration.Round(time.Millisecond), source, info.SnapshotVersion,
				sharded.Shards(), sharded.Len(), sharded.Options().Rounds)
		} else {
			idx, dim = single, single.Options().Dimension
			infof("index: loaded from snapshot %s in %v (source %s, format v%d, n=%d, k=%d)",
				*snapPath, info.LoadDuration.Round(time.Millisecond), source, info.SnapshotVersion,
				single.Len(), single.Options().Rounds)
		}
	} else {
		inst := loadInstance()
		start := time.Now()
		points := make([]anns.Point, len(inst.DB))
		copy(points, inst.DB)
		built, err := anns.BuildSharded(points, idxf.Shards, idxf.For(inst.D))
		if err != nil {
			fatalf("annsd: %v", err)
		}
		info.LoadDuration = time.Since(start)
		sp := built.Space()
		infof("index: built %d shards over n=%d in %v (k=%d, γ=%v, algo=%s); nominal log₂ cells %.1f",
			built.Shards(), built.Len(), info.LoadDuration.Round(time.Millisecond), idxf.Rounds, idxf.Gamma, idxf.Algorithm,
			sp.NominalLog2Cells)
		if *savePath != "" {
			t0 := time.Now()
			if err := saveSharded(*savePath, built); err != nil {
				fatalf("annsd: %v", err)
			}
			size := int64(-1)
			if st, err := os.Stat(*savePath); err == nil {
				size = st.Size()
			}
			infof("snapshot: saved %s (%d bytes) in %v", *savePath, size,
				time.Since(t0).Round(time.Millisecond))
		}
		idx, dim = built, inst.D
	}

	srv, err := server.New(idx, server.Config{
		Dimension:      dim,
		Workers:        *workers,
		QueueDepth:     *queue,
		BatchWorkers:   *batchWorkers,
		MaxBatch:       *maxBatch,
		DefaultTimeout: *timeout,
		CacheEntries:   *cacheEntries,
		Index:          info,
		Trace: obs.TracerConfig{
			Seed:      idxf.Seed,
			Sample:    *traceSample,
			SlowQuery: time.Duration(*slowQueryMS) * time.Millisecond,
			Logger:    logger,
		},
	})
	if err != nil {
		fatalf("annsd: %v", err)
	}
	if *debugAddr != "" {
		go func() {
			infof("debug/pprof on %s", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, obs.PprofMux()); err != nil {
				infof("annsd: debug listener: %v", err)
			}
		}()
	}
	if *cacheEntries > 0 {
		infof("result cache: %d entries (epoch-invalidated)", *cacheEntries)
	} else {
		infof("result cache: disabled")
	}
	logger.Info("scan kernel: the table-scan body behind /v1/batch on this CPU", "impl", srv.Stats().ScanKernel)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	infof("serving on %s", *addr)

	select {
	case err := <-errc:
		if err != nil {
			fatalf("annsd: %v", err)
		}
	case <-ctx.Done():
		// SIGTERM/SIGINT: stop accepting, answer every in-flight and
		// queued request, then exit. CI teardown (`kill` + `wait`) relies
		// on this being deterministic.
		infof("shutting down: draining in-flight requests and admission queue")
		shctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shctx); err != nil {
			infof("annsd: shutdown: %v", err)
		}
		if mclose != nil {
			// Flush and close the WAL after the last mutation has been
			// answered; the log alone can rebuild this state.
			if err := mclose.Close(); err != nil {
				infof("annsd: closing mutable tier: %v", err)
			}
		}
		snap := srv.Stats()
		fmt.Printf("served %d queries (%d near, %d batches), %d errors, %d probes total\n",
			snap.Queries, snap.Near, snap.Batches, snap.Errors, snap.Probes)
	}
}

// mutableOnly names the flags that configure the mutable tier and mean
// nothing without -mutable.
var mutableOnly = []string{"base-snapshot", "wal", "wal-sync", "memtable", "compact-every", "mutable-sync"}

// checkMutableFlags rejects a command line that sets a mutable-tier flag
// without -mutable: such a process would fall through to "build from the
// workload flags" and serve a generated corpus instead of the snapshot
// and WAL it was pointed at.
func checkMutableFlags(fs *flag.FlagSet, mutable bool) error {
	if mutable {
		return nil
	}
	var stray []string
	fs.Visit(func(fl *flag.Flag) {
		if slices.Contains(mutableOnly, fl.Name) {
			stray = append(stray, "-"+fl.Name)
		}
	})
	if len(stray) > 0 {
		return fmt.Errorf("%s set without -mutable: these configure the mutable tier and would be ignored", strings.Join(stray, ", "))
	}
	return nil
}

// bootMutableSingle brings up the classic single-shard mutable tier:
// resume from a mutable snapshot when one exists at snapPath (which then
// also receives compaction persists), otherwise build the base from the
// workload flags.
func bootMutableSingle(mcfg *anns.MutableConfig, snapPath string, loadInstance func() *workload.Instance, idxf anns.BuildFlags, info *server.IndexInfo) *anns.MutableIndex {
	start := time.Now()
	snapExists := false
	if snapPath != "" {
		switch _, err := os.Stat(snapPath); {
		case err == nil:
			snapExists = true
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start: build from the workload flags; compactions
			// will create the snapshot here.
		default:
			// Any other failure must not silently shadow (and later
			// overwrite) an existing snapshot with a fresh build.
			fatalf("annsd: stat %s: %v", snapPath, err)
		}
	}
	if snapExists {
		f, err := os.Open(snapPath)
		if err != nil {
			fatalf("annsd: %v", err)
		}
		mx, err := anns.LoadMutable(f, *mcfg)
		f.Close()
		if err != nil {
			fatalf("annsd: loading mutable snapshot %s: %v", snapPath, err)
		}
		*info = server.IndexInfo{
			Source:          "snapshot",
			SnapshotVersion: snapshotFileVersion(snapPath),
			LoadDuration:    time.Since(start),
			Path:            snapPath,
		}
		return mx
	}
	// The mutable tier layers over one single-shard base; the -shards
	// flag selects the sharded mutable reference instead.
	inst := loadInstance()
	points := make([]anns.Point, len(inst.DB))
	copy(points, inst.DB)
	opts := idxf.For(inst.D)
	base, err := anns.Build(points, opts)
	if err != nil {
		fatalf("annsd: %v", err)
	}
	mcfg.Options = opts
	mx, err := anns.NewMutable(base, *mcfg)
	if err != nil {
		fatalf("annsd: %v", err)
	}
	info.LoadDuration = time.Since(start)
	return mx
}

// snapshotFileVersion reports the format version a snapshot file
// declares (readers accept a range since v2, so the build's
// FormatVersion is not necessarily what this process is serving).
// Best-effort: the file already loaded once when this is called.
func snapshotFileVersion(path string) uint32 {
	f, err := os.Open(path)
	if err != nil {
		return snapshot.FormatVersion
	}
	defer f.Close()
	d, err := snapshot.NewDecoder(f)
	if err != nil {
		return snapshot.FormatVersion
	}
	return d.Version()
}

func saveSharded(path string, sx *anns.ShardedIndex) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := anns.SaveSharded(f, sx); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
