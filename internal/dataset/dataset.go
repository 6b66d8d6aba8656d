// Package dataset serializes workload instances so that `annsctl gen`
// can hand one corpus and its ground truth to `annsd -in`, `annsload -in`
// and external users. The format is gob with a small header
// wrapper; Save/Load round-trip workload.Instance exactly.
package dataset

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/bitvec"
	"repro/internal/workload"
)

// magic guards against feeding arbitrary gob streams to Load.
const magic = "repro-anns-dataset-v1"

// file is the on-disk representation.
type file struct {
	Magic   string
	Name    string
	D       int
	DB      [][]uint64
	Queries []query
}

type query struct {
	X       []uint64
	NNIndex int
	NNDist  int
}

// Write serializes the instance to w.
func Write(w io.Writer, in *workload.Instance) error {
	f := file{Magic: magic, Name: in.Name, D: in.D}
	for _, p := range in.DB {
		f.DB = append(f.DB, p)
	}
	for _, q := range in.Queries {
		f.Queries = append(f.Queries, query{X: q.X, NNIndex: q.NNIndex, NNDist: q.NNDist})
	}
	return gob.NewEncoder(w).Encode(f)
}

// Read deserializes an instance from r.
func Read(r io.Reader) (*workload.Instance, error) {
	var f file
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("dataset: decode: %w", err)
	}
	if f.Magic != magic {
		return nil, fmt.Errorf("dataset: bad magic %q", f.Magic)
	}
	if f.D <= 0 {
		return nil, fmt.Errorf("dataset: invalid dimension %d", f.D)
	}
	in := &workload.Instance{Name: f.Name, D: f.D}
	words := bitvec.Words(f.D)
	for i, p := range f.DB {
		if len(p) != words {
			return nil, fmt.Errorf("dataset: point %d has %d words, want %d", i, len(p), words)
		}
		in.DB = append(in.DB, bitvec.Vector(p))
	}
	for i, q := range f.Queries {
		if len(q.X) != words {
			return nil, fmt.Errorf("dataset: query %d has %d words, want %d", i, len(q.X), words)
		}
		if q.NNIndex < -1 || q.NNIndex >= len(f.DB) {
			return nil, fmt.Errorf("dataset: query %d ground-truth index %d out of range", i, q.NNIndex)
		}
		in.Queries = append(in.Queries, workload.Query{
			X: bitvec.Vector(q.X), NNIndex: q.NNIndex, NNDist: q.NNDist,
		})
	}
	return in, nil
}

// Save writes the instance to a file path.
func Save(path string, in *workload.Instance) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	if err := Write(bw, in); err != nil {
		return err
	}
	return bw.Flush()
}

// Load reads an instance from a file path.
func Load(path string) (*workload.Instance, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}
