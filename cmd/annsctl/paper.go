package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/eval"
)

// runPaper is the one entry point that reproduces the paper: it runs the
// experiment suite E1–E14 of internal/eval (DESIGN.md §4) and prints the
// regenerated tables. CI runs `annsctl paper -quick -out <dir>` on every
// push and uploads the directory.
func runPaper(args []string) {
	fs := flag.NewFlagSet("annsctl paper", flag.ExitOnError)
	runIDs := fs.String("run", "", "comma-separated experiment ids (default: all)")
	seed := fs.Uint64("seed", 42, "base random seed")
	quick := fs.Bool("quick", false, "reduced sweeps")
	format := fs.String("format", "text", "output format: text, markdown, or csv")
	list := fs.Bool("list", false, "list experiments and exit")
	outDir := fs.String("out", "", "also write one <id>.md and <id>.csv per experiment into this directory")
	fs.Parse(args)

	if *list {
		for _, e := range eval.All() {
			fmt.Printf("%-4s %s\n     %s\n", e.ID, e.Title, e.Claim)
		}
		return
	}

	selected := eval.All()
	if *runIDs != "" {
		selected = nil
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := eval.ByID(strings.TrimSpace(id))
			if !ok {
				log.Fatalf("unknown experiment %q (use -list)", id)
			}
			selected = append(selected, e)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	cfg := eval.Config{Seed: *seed, Quick: *quick}
	for _, e := range selected {
		start := time.Now()
		for ti, t := range e.Run(cfg) {
			switch *format {
			case "markdown":
				fmt.Println(t.Markdown())
			case "csv":
				fmt.Println(t.CSV())
			default:
				fmt.Println(t.Text())
			}
			if *outDir == "" {
				continue
			}
			base := e.ID
			if ti > 0 {
				base = fmt.Sprintf("%s-%d", e.ID, ti)
			}
			for ext, content := range map[string]string{".md": t.Markdown(), ".csv": t.CSV()} {
				if err := os.WriteFile(filepath.Join(*outDir, base+ext), []byte(content), 0o644); err != nil {
					log.Fatal(err)
				}
			}
		}
		fmt.Printf("[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}
