package main

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/workload"
)

// TestGenWritesTheSpecInstance: the file `annsctl gen` writes loads (as
// `annsd -in` and `annsload -in` load it) to the instance the same
// workload flags generate in-process — for a kind and seed that are not
// the defaults, spelled -wseed/-wgamma like every other command.
func TestGenWritesTheSpecInstance(t *testing.T) {
	out := filepath.Join(t.TempDir(), "data.bin")
	runGen([]string{"-out", out, "-kind", "annulus", "-d", "256", "-n", "64", "-q", "8",
		"-lambda", "6", "-wgamma", "3", "-wseed", "7"})
	got, err := dataset.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	spec := workload.DefaultSpec()
	spec.Kind, spec.D, spec.N, spec.Q, spec.Lambda, spec.Gamma, spec.Seed = "annulus", 256, 64, 8, 6, 3, 7
	want, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loaded instance %s differs from the generated one %s", got, want)
	}
}
