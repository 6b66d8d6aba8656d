package anns

import (
	"flag"
	"fmt"
)

// String names the algorithm as the -algo flag spells it.
func (a Algorithm) String() string {
	if a == Sophisticated {
		return "soph"
	}
	return "simple"
}

// Set parses an -algo flag value, so an unknown scheme is rejected while
// the command line is parsed.
func (a *Algorithm) Set(s string) error {
	switch s {
	case "simple":
		*a = Simple
	case "soph":
		*a = Sophisticated
	default:
		return fmt.Errorf("unknown algorithm %q (simple | soph)", s)
	}
	return nil
}

// BuildFlags is the flag form of an index build: the Options every
// command that builds an index takes (Dimension comes from the data, not
// from a flag) plus the shard count. cmd/annsd and every building
// cmd/annsctl subcommand register exactly these, which is what keeps
// `annsctl shard-split` files and the single-process `annsd` reference
// over the same flags the same index.
type BuildFlags struct {
	Options
	Shards int
}

// DefaultBuildFlags is the starting point the commands register over.
func DefaultBuildFlags() BuildFlags {
	return BuildFlags{Options: Options{Gamma: 2, Rounds: 3, Repetitions: 1, Seed: 42}, Shards: 4}
}

// RegisterFlags exposes the build parameters on fs, with the receiver's
// current values as defaults.
func (f *BuildFlags) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&f.Rounds, "k", f.Rounds, "adaptivity budget (rounds)")
	fs.Var(&f.Algorithm, "algo", "query `scheme`: simple (Algorithm 1, the default) | soph (Algorithm 2)")
	fs.Float64Var(&f.Gamma, "gamma", f.Gamma, "approximation ratio")
	fs.IntVar(&f.Repetitions, "reps", f.Repetitions, "independent repetitions (success boosting)")
	fs.Uint64Var(&f.Seed, "seed", f.Seed, "public randomness seed (shards derive their own)")
	fs.IntVar(&f.Shards, "shards", f.Shards, "shard count (annsctl build: 1 = a single unsharded index)")
	fs.IntVar(&f.BuildWorkers, "build-workers", f.BuildWorkers, "index build worker pool (0 = GOMAXPROCS)")
}

// For returns the build options over d-dimensional data.
func (f BuildFlags) For(d int) Options {
	opts := f.Options
	opts.Dimension = d
	return opts
}
