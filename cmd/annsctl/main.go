// Command annsctl is the offline tool: it builds index snapshots ("build
// once"), inspects them, writes workload dataset files, and regenerates
// the paper's tables.
//
//	annsctl build -o idx.snap -kind planted -d 512 -n 4096 -shards 4 -k 3
//	annsctl shard-split -o shards/ -kind planted -d 512 -n 4096 -shards 4 -k 3
//	annsctl inspect idx.snap
//	annsctl compact -snapshot base.snap -wal wal.log -o merged.snap
//	annsctl gen -out data.bin -kind clustered -d 1024 -n 500 -q 50
//	annsctl paper [-run E1,E3] [-seed 42] [-quick] [-format text|markdown|csv]
//
// A snapshot built here is served by `annsd -snapshot idx.snap` on any
// host ("serve anywhere"): the file embeds the format version, the paper
// parameters (d, k, γ, s, repetitions), per-section lengths, and a
// checksum over the flat index arrays. An index built for Algorithm 1
// (-algo simple, the default) has no coarse family: inspect shows s=-1,
// rows=R/0 and no coarse-matrices or coarse-sketches section; only
// -algo soph snapshots carry those.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/anns"
	"repro/internal/dataset"
	"repro/internal/router"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("annsctl: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		runBuild(os.Args[2:])
	case "shard-split":
		runShardSplit(os.Args[2:])
	case "inspect":
		runInspect(os.Args[2:])
	case "compact":
		runCompact(os.Args[2:])
	case "gen":
		runGen(os.Args[2:])
	case "paper":
		runPaper(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: annsctl <command> [flags]

commands:
  build        build an index over a generated workload and save its snapshot
  shard-split  build a sharded index and emit one snapshot per shard plus a
               placement manifest for cmd/annsrouter
  inspect      print a snapshot's header, parameters, and section summary —
               or, given an http:// URL, a live server's serving provenance
               (index source, cache capacity and hit rate, generation);
               -algo simple snapshots carry no coarse sections (rows=R/0)
  compact      offline-merge a base snapshot and a WAL into one fresh snapshot
  gen          generate a workload and write it as a dataset file for
               annsd -in / annsload -in
  paper        run the experiment suite E1–E14 (DESIGN.md §4) and print the
               regenerated tables — the one command that reproduces the paper

run "annsctl <command> -h" for the command's flags
`)
	os.Exit(2)
}

// buildIndex generates the workload and builds the configured index,
// returning exactly one non-nil index.
func buildIndex(spec workload.Spec, idxf anns.BuildFlags) (*anns.Index, *anns.ShardedIndex, time.Duration) {
	inst, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("workload: %s", inst)
	opts := idxf.For(inst.D)
	start := time.Now()
	if idxf.Shards <= 1 {
		ix, err := anns.Build(inst.DB, opts)
		if err != nil {
			log.Fatal(err)
		}
		return ix, nil, time.Since(start)
	}
	sx, err := anns.BuildSharded(inst.DB, idxf.Shards, opts)
	if err != nil {
		log.Fatal(err)
	}
	return nil, sx, time.Since(start)
}

func save(path string, ix *anns.Index, sx *anns.ShardedIndex) (int64, time.Duration) {
	start := time.Now()
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if ix != nil {
		err = anns.SaveIndex(f, ix)
	} else {
		err = anns.SaveSharded(f, sx)
	}
	if err != nil {
		f.Close()
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	return st.Size(), time.Since(start)
}

func runBuild(args []string) {
	fs := flag.NewFlagSet("annsctl build", flag.ExitOnError)
	out := fs.String("o", "index.snap", "output snapshot path")
	spec := workload.DefaultSpec()
	spec.RegisterFlags(fs)
	idxf := anns.DefaultBuildFlags()
	idxf.RegisterFlags(fs)
	fs.Parse(args)

	ix, sx, buildDur := buildIndex(spec, idxf)
	n := 0
	if ix != nil {
		n = ix.Len()
	} else {
		n = sx.Len()
	}
	log.Printf("built index over n=%d in %v (shards=%d, k=%d, workers=%d)",
		n, buildDur.Round(time.Millisecond), idxf.Shards, idxf.Rounds, idxf.BuildWorkers)
	bytes, saveDur := save(*out, ix, sx)
	log.Printf("saved %s (%d bytes, format v%d) in %v", *out, bytes,
		snapshot.FormatVersion, saveDur.Round(time.Millisecond))
}

// runShardSplit builds a sharded index and writes it as the layout
// cmd/annsrouter and `annsd -snapshot` boot from (router.WriteShardSplit).
func runShardSplit(args []string) {
	fs := flag.NewFlagSet("annsctl shard-split", flag.ExitOnError)
	out := fs.String("o", "shards", "output directory (created if missing)")
	spec := workload.DefaultSpec()
	spec.RegisterFlags(fs)
	idxf := anns.DefaultBuildFlags()
	idxf.RegisterFlags(fs)
	fs.Parse(args)
	if idxf.Shards < 2 {
		log.Fatal("shard-split needs -shards >= 2")
	}

	ix, sx, buildDur := buildIndex(spec, idxf)
	if ix != nil {
		log.Fatal("shard-split built a single index; this is a bug")
	}
	log.Printf("built %d shards over n=%d in %v (k=%d, workers=%d)",
		sx.Shards(), sx.Len(), buildDur.Round(time.Millisecond), idxf.Rounds, idxf.BuildWorkers)

	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	mpath, err := router.WriteShardSplit(*out, sx)
	if err != nil {
		log.Fatal(err)
	}
	m, err := router.LoadManifest(mpath)
	if err != nil {
		log.Fatal(err)
	}
	for s, f := range m.Files {
		path := m.ShardPath(mpath, s)
		st, err := os.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("shard %d: %s (%d bytes, n=%d, seed=%d)", s, path, st.Size(), f.N, f.Seed)
	}
	log.Printf("manifest: %s (placement %s, %d shards, n=%d, d=%d)",
		mpath, m.Placement, m.Shards, m.N, m.Dimension)
}

func runInspect(args []string) {
	fs := flag.NewFlagSet("annsctl inspect", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		log.Fatal("usage: annsctl inspect <snapshot | http://server>")
	}
	path := fs.Arg(0)
	if strings.HasPrefix(path, "http://") || strings.HasPrefix(path, "https://") {
		inspectServer(strings.TrimSuffix(path, "/"))
		return
	}
	info, err := snapshot.InspectFile(path)
	if err != nil {
		log.Fatalf("inspecting %s: %v", path, err)
	}
	fmt.Printf("%s: %s snapshot, format v%d, %d bytes, checksum ok\n",
		path, snapshot.KindName(info.Kind), info.Version, info.Bytes)
	if info.Source == "mmap" {
		fmt.Printf("index_source: mmap (%d bytes mapped, zero-copy walk)\n", info.MappedBytes)
	} else {
		fmt.Printf("index_source: stream")
		if info.FallbackReason != "" {
			fmt.Printf(" (mmap fallback: %s)", info.FallbackReason)
		}
		fmt.Println()
	}
	if o := info.Options; o != nil {
		fmt.Printf("options: d=%d γ=%v k=%d algo=%s reps=%d seed=%d\n",
			o.Dimension, o.Gamma, o.Rounds, anns.Algorithm(o.Algorithm), o.Repetitions, o.Seed)
	}
	if info.Shards > 0 {
		fmt.Printf("shards: %d over n=%d\n", info.Shards, info.N)
	} else {
		fmt.Printf("n: %d\n", info.N)
	}
	if m := info.Mutable; m != nil {
		fmt.Printf("mutable tier: base=%d segments=%d (%d raw, %d points) memtable=%d tombstones=%d next-id=%d\n",
			m.Base, m.Segments, m.RawSegments, m.SegmentPoints, m.Memtable, m.Tombstones, m.NextID)
	}
	for i, c := range info.Cores {
		fmt.Printf("core %d: d=%d n=%d k=%d γ=%v s=%v seed=%d L=%d rows=%d/%d (%d words)\n",
			i, c.D, c.N, c.K, c.Gamma, c.S, c.Seed, c.L, c.AccRows, c.CoarseRows, c.Words())
		for _, s := range c.Sections {
			fmt.Printf("  section %-16s %12d words\n", snapshot.SectionName(s.Tag), s.Words)
		}
	}
}

// inspectServer prints a live annsd's serving provenance from /healthz +
// /statsz: index source, corpus shape, the result-cache configuration
// (capacity and observed hit rate), and the mutable tier's generation —
// so the configuration a load run measured against lands in the
// trajectory artifacts next to the numbers.
func inspectServer(base string) {
	client := &http.Client{Timeout: 5 * time.Second}
	var health server.Health
	if err := getJSON(client, base+"/healthz", &health); err != nil {
		log.Fatalf("inspecting %s: %v", base, err)
	}
	var snap server.StatsSnapshot
	if err := getJSON(client, base+"/statsz", &snap); err != nil {
		log.Fatalf("inspecting %s: %v", base, err)
	}
	fmt.Printf("%s: live server, n=%d shards=%d d=%d uptime=%.1fs\n",
		base, health.N, health.Shards, health.Dim, float64(health.UptimeMS)/1e3)
	fmt.Printf("index_source: %s", snap.IndexSource)
	if snap.SnapshotVersion != 0 {
		fmt.Printf(" (format v%d)", snap.SnapshotVersion)
	}
	fmt.Println()
	if c := snap.Cache; c != nil {
		fmt.Printf("result cache: %d entries configured, %d live, hits=%d misses=%d hit_rate=%.4f evictions=%d invalidations=%d\n",
			c.Capacity, c.Entries, c.Hits, c.Misses, c.HitRate, c.Evictions, c.Invalidations)
	} else {
		fmt.Printf("result cache: disabled\n")
	}
	if m := snap.Mutable; m != nil {
		fmt.Printf("mutable tier: live_n=%d memtable=%d segments=%d generation=%d\n",
			m.LiveN, m.Memtable, m.SealedSegments, m.Generation)
	}
	fmt.Printf("served: %d queries (%d near, %d batches), %d errors\n",
		snap.Queries, snap.Near, snap.Batches, snap.Errors)
	inspectMetrics(client, base)
}

// inspectMetrics summarizes the server's /metricsz exposition: scrape
// freshness and the top-N series by value, so one inspection entry point
// covers both the JSON rollup and the Prometheus surface. A server built
// before /metricsz existed just reports the endpoint as absent.
func inspectMetrics(client *http.Client, base string) {
	const topN = 10
	t0 := time.Now()
	resp, err := client.Get(base + "/metricsz")
	if err != nil || resp.StatusCode != http.StatusOK {
		if resp != nil {
			resp.Body.Close()
		}
		fmt.Printf("metricsz: unavailable\n")
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		fmt.Printf("metricsz: %v\n", err)
		return
	}
	elapsed := time.Since(t0)
	type sample struct {
		name  string
		value float64
	}
	var samples []sample
	series := 0
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series++
		// Histogram expansion lines (cumulative buckets, _sum) would
		// drown the counters in the top-N; rank only plain series and
		// histogram _count totals.
		name := line[:sp]
		if strings.Contains(name, "_bucket") || strings.Contains(name, "_sum") {
			continue
		}
		samples = append(samples, sample{name: name, value: v})
	}
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].value != samples[j].value {
			return samples[i].value > samples[j].value
		}
		return samples[i].name < samples[j].name
	})
	fmt.Printf("metricsz: %d series, scraped in %v\n", series, elapsed.Round(time.Millisecond))
	for i, s := range samples {
		if i >= topN {
			break
		}
		fmt.Printf("  %-60s %g\n", s.name, s.value)
	}
}

// getJSON fetches url and decodes the body into v.
func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// runCompact is the offline compactor: load a base snapshot (a plain
// index or a full mutable-tier state), replay a WAL over it, fold
// everything — base, sealed segments, memtable, tombstones — into one
// fresh from-scratch rebuild, and save a single snapshot. By default the
// output is a mutable-tier snapshot (stable IDs preserved, bootable by
// `annsd -mutable -snapshot`); -flatten emits a plain index snapshot
// servable by any annsd, renumbering points to 0..n-1 in ID order.
func runCompact(args []string) {
	fs := flag.NewFlagSet("annsctl compact", flag.ExitOnError)
	snapPath := fs.String("snapshot", "", "base snapshot (plain index or mutable kind); required")
	walPath := fs.String("wal", "", "write-ahead log to replay over the base (optional)")
	out := fs.String("o", "compacted.snap", "output snapshot path")
	flatten := fs.Bool("flatten", false, "emit a plain index snapshot (renumbers IDs) instead of a mutable-tier one")
	truncWAL := fs.Bool("truncate-wal", false, "after a successful save, reset the WAL (its state now lives in the output; required before serving the output with the same -wal)")
	fs.Parse(args)
	if *snapPath == "" {
		log.Fatal("usage: annsctl compact -snapshot base.snap [-wal wal.log] -o out.snap")
	}

	f, err := os.Open(*snapPath)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	mx, err := anns.LoadMutable(f, anns.MutableConfig{
		Synchronous: true,
		WALPath:     *walPath,
	})
	f.Close()
	if err != nil {
		log.Fatalf("loading %s: %v", *snapPath, err)
	}
	defer mx.Close()
	st := mx.MutableStats()
	log.Printf("loaded %s + %d WAL records: n=%d (memtable %d, %d sealed, %d tombstones)",
		*snapPath, st.WALReplayed, st.LiveN, st.Memtable, st.Sealed, st.Tombstones)

	mx.Flush() // capture the memtable in the compaction
	if err := mx.Compact(); err != nil {
		log.Fatalf("compacting: %v", err)
	}
	base, ids, ok := mx.Base()
	if !ok {
		log.Fatalf("compaction left no base: %d live points cannot fill a static index", mx.Len())
	}
	after := mx.MutableStats()
	log.Printf("compacted in %v: n=%d, tombstones applied, segments folded",
		time.Since(start).Round(time.Millisecond), after.LiveN)

	of, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if *flatten {
		err = anns.SaveIndex(of, base)
	} else {
		err = anns.SaveMutable(of, mx)
	}
	if err != nil {
		of.Close()
		log.Fatal(err)
	}
	if err := of.Close(); err != nil {
		log.Fatal(err)
	}
	stat, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	if *flatten {
		renumbered := 0
		for j, id := range ids {
			if id != uint64(j) {
				renumbered++
			}
		}
		log.Printf("saved %s (%d bytes, plain index, format v%d); %d of %d points renumbered",
			*out, stat.Size(), snapshot.FormatVersion, renumbered, base.Len())
	} else {
		log.Printf("saved %s (%d bytes, mutable kind, format v%d); stable IDs preserved",
			*out, stat.Size(), snapshot.FormatVersion)
	}
	if *truncWAL && *walPath != "" {
		if err := mx.TruncateWAL(); err != nil {
			log.Fatalf("truncating WAL: %v", err)
		}
		log.Printf("WAL %s reset (state captured by %s)", *walPath, *out)
	}
}

// runGen writes the instance the workload flags describe as a dataset
// file: `annsd -in` and `annsload -in` then agree on corpus and ground
// truth from the file instead of from matching generator flags.
func runGen(args []string) {
	fs := flag.NewFlagSet("annsctl gen", flag.ExitOnError)
	out := fs.String("out", "dataset.bin", "output dataset path")
	spec := workload.DefaultSpec()
	spec.RegisterFlags(fs)
	fs.Parse(args)

	inst, err := spec.Generate()
	if err != nil {
		log.Fatal(err)
	}
	if err := dataset.Save(*out, inst); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, inst)
}
