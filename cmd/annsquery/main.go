// Command annsquery loads a dataset produced by cmd/annsgen, builds the
// cell-probe index, runs the stored query stream, and reports per-query
// answers plus aggregate cell-probe accounting.
//
// Usage:
//
//	annsquery -in data.bin -k 3 [-algo simple|soph] [-gamma 2] [-v]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/anns"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/server"
	"repro/internal/stats"
)

func main() {
	in := flag.String("in", "dataset.bin", "input dataset path")
	k := flag.Int("k", 3, "adaptivity budget (rounds)")
	algo := flag.String("algo", "simple", "simple (Algorithm 1) | soph (Algorithm 2)")
	gamma := flag.Float64("gamma", 2, "approximation ratio")
	reps := flag.Int("reps", 1, "independent repetitions (success boosting)")
	seed := flag.Uint64("seed", 42, "public randomness seed")
	verbose := flag.Bool("v", false, "print every query")
	flag.Parse()

	inst, err := dataset.Load(*in)
	if err != nil {
		log.Fatalf("annsquery: %v", err)
	}
	fmt.Printf("loaded %s\n", inst)

	opts := anns.Options{
		Dimension:   inst.D,
		Gamma:       *gamma,
		Rounds:      *k,
		Repetitions: *reps,
		Seed:        *seed,
	}
	if *algo == "soph" {
		opts.Algorithm = anns.Sophisticated
	} else if *algo != "simple" {
		log.Fatalf("annsquery: unknown -algo %q", *algo)
	}

	start := time.Now()
	points := make([]anns.Point, len(inst.DB))
	copy(points, inst.DB)
	idx, err := anns.Build(points, opts)
	if err != nil {
		log.Fatalf("annsquery: %v", err)
	}
	buildDur := time.Since(start)
	fmt.Printf("index built in %v (k=%d, γ=%v, algo=%s)\n",
		buildDur.Round(time.Millisecond), *k, *gamma, *algo)

	ok, failed := 0, 0
	var totalProbes, totalRounds, maxRounds, maxParallel int
	var probeDist, parallelDist []int
	// Accumulate pure query time so the statsz QPS measures the index,
	// not the -v printing below.
	var qtime time.Duration
	for i, q := range inst.Queries {
		t0 := time.Now()
		res, err := idx.Query(q.X)
		qtime += time.Since(t0)
		// Failed queries still pay for their probes in the model.
		totalProbes += res.Probes
		totalRounds += res.Rounds
		if res.Rounds > maxRounds {
			maxRounds = res.Rounds
		}
		if res.MaxParallel > maxParallel {
			maxParallel = res.MaxParallel
		}
		probeDist = append(probeDist, res.Probes)
		parallelDist = append(parallelDist, res.MaxParallel)
		if err != nil {
			failed++
			if *verbose {
				fmt.Printf("query %3d: FAILED probes=%d rounds=%d maxpar=%d (%v)\n",
					i, res.Probes, res.Rounds, res.MaxParallel, err)
			}
			continue
		}
		good := float64(res.Distance) <= *gamma*float64(q.NNDist)
		if good {
			ok++
		}
		if *verbose {
			fmt.Printf("query %3d: point #%d dist=%d (exact %d) probes=%d rounds=%d maxpar=%d %v\n",
				i, res.Index, res.Distance, q.NNDist, res.Probes, res.Rounds, res.MaxParallel, good)
		}
	}
	nq := len(inst.Queries)
	fmt.Printf("\n%d queries: %d γ-approximate, %d failed\n", nq, ok, failed)
	fmt.Printf("probes/query: %v\n", stats.SummarizeInts(probeDist))
	fmt.Printf("max parallel/query: %v\n", stats.SummarizeInts(parallelDist))
	if nq > 0 {
		fmt.Printf("avg probes/query: %.1f   max rounds: %d   max parallel: %d\n",
			float64(totalProbes)/float64(nq), maxRounds, maxParallel)
	}

	// Emit the same stats schema internal/server serves at /statsz, so
	// CLI runs and server runs can be diffed field for field.
	snap := server.StatsSnapshot{
		ReadStats: server.ReadStats{
			UptimeMS:    qtime.Milliseconds(),
			Queries:     int64(nq),
			Errors:      int64(failed),
			Probes:      int64(totalProbes),
			Rounds:      int64(totalRounds),
			MaxRounds:   int64(maxRounds),
			MaxParallel: int64(maxParallel),
		},
		IndexSource: "built",
		IndexLoadMS: buildDur.Milliseconds(),
	}
	if sec := qtime.Seconds(); sec > 0 {
		snap.QPS = float64(nq) / sec
	}
	if nq > 0 {
		snap.ErrorRate = float64(failed) / float64(nq)
	}
	fmt.Printf("statsz: ")
	json.NewEncoder(os.Stdout).Encode(snap)
	th := eval.Theory{D: inst.D, Gamma: *gamma}
	fmt.Printf("theory: k(log d)^{1/k} = %.1f   lower bound = %.2f\n",
		th.Algo1Probes(*k), th.LowerBound(*k))
}
