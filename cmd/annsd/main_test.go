package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

func TestCheckMutableFlags(t *testing.T) {
	cases := []struct {
		args string
		want []string // substrings of the error; nil = accepted
	}{
		{"", nil},
		{"-snapshot idx.snap", nil},
		{"-mutable -wal w.log -memtable 64 -compact-every 3 -wal-sync 0 -mutable-sync", nil},
		{"-mutable -base-snapshot shard-0.snap -wal w.log", nil},
		{"-base-snapshot shard-0.snap -wal w.log", []string{"-base-snapshot", "-wal", "-mutable"}},
		{"-wal w.log", []string{"-wal"}},
		{"-wal-sync 8", []string{"-wal-sync"}},
		{"-memtable 64", []string{"-memtable"}},
		{"-compact-every 0", []string{"-compact-every"}},
		{"-mutable-sync", []string{"-mutable-sync"}},
		{"-mutable=false -memtable 1024", []string{"-memtable"}}, // set, even to its default
	}
	for _, tc := range cases {
		fs := flag.NewFlagSet("annsd", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		mutable := fs.Bool("mutable", false, "")
		fs.String("snapshot", "", "")
		fs.String("base-snapshot", "", "")
		fs.String("wal", "", "")
		fs.Int("wal-sync", 1, "")
		fs.Int("memtable", 1024, "")
		fs.Int("compact-every", 4, "")
		fs.Bool("mutable-sync", false, "")
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%q: %v", tc.args, err)
		}
		err := checkMutableFlags(fs, *mutable)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%q: rejected: %v", tc.args, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q: accepted, want an error naming %v", tc.args, tc.want)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%q: error %q does not name %s", tc.args, err, w)
			}
		}
	}
}
