// Command benchmark is the repository's one whole-path benchmark (see
// README.md in this directory and BENCHMARK.json at the repository root).
// It boots real in-process deployments on loopback HTTP, replays seeded
// schedules against them in a closed loop, verifies every reply, and
// prints every metric by name with its unit.
//
//	go run -C benchmark . -seed 1                 # all four workloads, timed + traced
//	go run -C benchmark . -workload engine-novel -seed 7 -seconds 10 -trace 0
//	go run -C benchmark . -repeat 10              # self-check: spreads against bounds
//	go run -C benchmark . -quick                  # ~1/20 size, all gates (what `go test` runs)
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

//go:embed digests.json
var pinnedDigests []byte

// digestKey names one pinned input set.
func digestKey(quick bool, wl string, seed uint64) string {
	mode := "full"
	if quick {
		mode = "quick"
	}
	return mode + "/" + wl + "/" + strconv.FormatUint(seed, 10)
}

// checkDigest fails the run when the compiled inputs for a pinned
// (mode, workload, seed) are not the ones digests.json records: a change
// to internal/workload, internal/hamming or the schedule compiler must
// not silently change the traffic. Unpinned seeds pass.
func checkDigest(cfg runConfig, digest string) error {
	var pins map[string]string
	if err := json.Unmarshal(pinnedDigests, &pins); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	key := digestKey(cfg.quick, cfg.wl, cfg.seed)
	if want, ok := pins[key]; ok && want != digest {
		return fmt.Errorf("input digest mismatch for %s: compiled %s, pinned %s (the workload's traffic changed; if that is intended, rerun with -update-digests)", key, digest, want)
	}
	return nil
}

// pinnedSeeds are the seeds whose inputs digests.json pins.
var pinnedSeeds = map[bool][]uint64{false: {1, 2}, true: {1}}

func updateDigests() error {
	pins := map[string]string{}
	for quick, seeds := range pinnedSeeds {
		for _, seed := range seeds {
			for _, w := range workloadDefs {
				cfg := runConfig{wl: w.Name, seed: seed, quick: quick}
				p, err := compile(w.Name, seed, cfg.sizes())
				if err != nil {
					return err
				}
				pins[digestKey(quick, w.Name, seed)] = p.digest
			}
		}
	}
	return writeJSON("digests.json", pins)
}

// printResult writes one run's human-readable report.
func printResult(res *runResult, defs []metricDef) {
	fmt.Printf("\n== %s  seed %d  %s run  (%.1f s)\n", res.Workload, res.Seed, res.Mode, res.ElapsedS)
	fmt.Printf("   input digest sha256:%s\n", res.Digest)
	for _, ph := range res.Phases {
		fmt.Printf("   phase %-8s clients %d  attempted %d  succeeded %d  failed %d  ops %d  wall %.2f s  cpu %.2f s\n",
			ph.Name, ph.Clients, ph.Attempted, ph.Succeeded, ph.Failed, ph.Ops, ph.WallS, ph.CPUS)
	}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line := fmt.Sprintf("   %-28s %14.4f %-6s", d.Name, v.Value, v.Unit)
		if d.Bound > 0 || d.Name == "recall" {
			line += fmt.Sprintf(" (%s is better, bound %.2f)", d.Better, d.Bound)
		}
		if note := res.Notes[d.Name]; note != "" {
			line += "  — " + note
		}
		fmt.Println(line)
	}
	var extra []string
	for k := range res.Notes {
		if _, ok := res.Metrics[k]; !ok {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	for _, k := range extra {
		fmt.Printf("   note %s: %s\n", k, res.Notes[k])
	}
	for _, e := range res.Errors {
		fmt.Printf("   WRONG: %s\n", e)
	}
	if res.Correct {
		fmt.Println("   correct: every reply verified")
	} else {
		fmt.Printf("   INCORRECT: %d errors, %d failed requests\n", len(res.Errors), res.Failed)
	}
}

// driverLine is the last line of standard output in single-run mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what benchmark/out/result-*.json holds.
type resultFile struct {
	Machine machine            `json:"machine"`
	Seed    uint64             `json:"seed"`
	Quick   bool               `json:"quick,omitempty"`
	Time    string             `json:"time"`
	Results []*runResult       `json:"results"`
	Repeat  map[string][]check `json:"repeat,omitempty"`
}

// check is one end-to-end metric's self-check over -repeat runs.
type check struct {
	Metric     string    `json:"metric"`
	Values     []float64 `json:"values"`
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	Spread     float64   `json:"spread"`
	Bound      float64   `json:"bound"`
	Unresolved bool      `json:"unresolved"`
}

// selfCheck summarises repeated timed runs of one workload: a metric
// whose run-to-run spread exceeds its own bound cannot resolve a
// regression of that size and is marked unresolved.
func selfCheck(runs []*runResult) []check {
	var out []check
	for _, d := range endToEnd {
		c := check{Metric: d.Name, Bound: d.Bound}
		for _, r := range runs {
			c.Values = append(c.Values, r.Metrics[d.Name].Value)
		}
		c.Median = median(c.Values)
		c.Q1, c.Q3 = quartiles(c.Values)
		c.Spread = spread(c.Values)
		c.Unresolved = c.Spread > d.Bound
		out = append(out, c)
	}
	return out
}

func printChecks(wl string, checks []check) {
	fmt.Printf("\n== %s  self-check over %d runs\n", wl, len(checks[0].Values))
	for _, c := range checks {
		flag := ""
		if c.Unresolved {
			flag = "  unresolved"
		}
		fmt.Printf("   %-16s median %12.4f  q1 %12.4f  q3 %12.4f  spread %.4f  bound %.2f%s\n",
			c.Metric, c.Median, c.Q1, c.Q3, c.Spread, c.Bound, flag)
	}
}

func main() {
	var (
		wl      = flag.String("workload", "", "run one workload (default: all four)")
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", runSeconds, "how long one timed run measures")
		trace   = flag.Int("trace", -1, "0: the timed run only (end-to-end metrics); 1: the traced run only (per-layer metrics); default both")
		quick   = flag.Bool("quick", false, "~1/20 of the op counts on a small corpus, all correctness gates")
		repeat  = flag.Int("repeat", 0, "self-check: run the timed suite N times and print each metric's spread next to its bound")
		out     = flag.String("out", "out", "directory for result and trace files and run scratch")
		emit    = flag.Bool("emit-spec", false, "print BENCHMARK.json from the registry and exit")
		update  = flag.Bool("update-digests", false, "recompute digests.json and exit")
	)
	flag.Parse()
	if *emit {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *update {
		if err := updateDigests(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	names := []string{*wl}
	if *wl == "" {
		names = nil
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	}
	if *quick && *seconds == runSeconds {
		*seconds = 0.6
	}
	mach := describeMachine()
	fmt.Printf("machine: nproc %d, GOMAXPROCS %d, %s %s/%s, cpu %q, kernel %s\n",
		mach.NProc, mach.GOMAXPROCS, mach.GoVersion, mach.GOOS, mach.GOARCH, mach.CPUModel, mach.Kernel)

	file := resultFile{Machine: mach, Seed: *seed, Quick: *quick, Time: time.Now().UTC().Format(time.RFC3339)}
	ok := true
	var last *runResult
	run := func(f func(runConfig) (*runResult, error), cfg runConfig, defs []metricDef) *runResult {
		res, err := f(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.wl, err)
			os.Exit(1)
		}
		printResult(res, defs)
		file.Results = append(file.Results, res)
		ok = ok && res.Correct
		last = res
		return res
	}
	for _, name := range names {
		cfg := runConfig{wl: name, seed: *seed, seconds: *seconds, quick: *quick, outDir: *out}
		if *repeat > 0 {
			var runs []*runResult
			for i := 0; i < *repeat; i++ {
				runs = append(runs, run(runTimed, cfg, endToEnd))
			}
			checks := selfCheck(runs)
			printChecks(name, checks)
			if file.Repeat == nil {
				file.Repeat = map[string][]check{}
			}
			file.Repeat[name] = checks
			continue
		}
		if *trace != 1 {
			run(runTimed, cfg, endToEnd)
		}
		if *trace != 0 {
			run(runTraced, cfg, perLayer)
		}
	}
	path := filepath.Join(*out, fmt.Sprintf("result-seed%d.json", *seed))
	if err := writeJSON(path, file); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Printf("\nresults written to %s\n", path)
	if len(file.Results) == 1 {
		line, _ := json.Marshal(driverLine{last.Correct, last.Attempted, last.Failed, last.Metrics})
		fmt.Println(string(line))
	}
	if !ok {
		os.Exit(1)
	}
}
