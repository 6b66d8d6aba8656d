package router

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/anns"
)

// ManifestVersion is the placement-manifest schema version. It versions
// the JSON layout only; the snapshot files it points at carry their own
// format version (internal/snapshot.FormatVersion). Version 2 added the
// placement epoch and per-shard primary designations for replicated
// writes (DESIGN.md §11); version-1 manifests still load, with epoch 0
// and every primary at replica position 0.
const ManifestVersion = 2

// Durability levels for replicated writes (Config.Durability /
// `annsrouter -durability`). See DESIGN.md §11.3.
const (
	// DurabilityPrimary acks a write when the primary's WAL append (and
	// fsync, in synchronous WAL mode) returns; replica relay failures are
	// counted but do not fail the request.
	DurabilityPrimary = "primary"
	// DurabilityQuorum acks only when ⌊R/2⌋+1 replicas of the shard,
	// counting the primary, hold the frame. With R=2 that is both — every
	// acked write is immediately readable on either replica.
	DurabilityQuorum = "quorum"
)

// PlacementRoundRobin is the only placement strategy today: point i of
// the logical database lives in shard i%S as that shard's (i/S)-th
// point, so the router translates shard-local answers back to logical
// indices with anns.RoundRobinGlobal — no per-point mapping table needs
// to travel from the splitter to the router.
const PlacementRoundRobin = "round-robin"

// Manifest is the placement manifest `annsctl shard-split` writes next
// to the per-shard snapshot files. It is the contract between the
// splitter, the shard servers (each boots `annsd -snapshot` on one
// file), and the router (which needs the topology and the local→global
// translation but never the index payload itself).
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	Placement     string `json:"placement"`
	// Shards is the shard count S of the logical index.
	Shards int `json:"shards"`
	// N is the logical database size (sum of the per-shard sizes).
	N int `json:"n"`
	// Dimension is the Hamming dimension every shard serves.
	Dimension int `json:"dimension"`
	// Seed is the user seed of the logical index; each shard's derived
	// seed is recorded on its file entry.
	Seed uint64 `json:"seed"`
	// Epoch is the placement epoch: 0 as written by the splitter, bumped
	// by the router on every primary promotion (and persisted back, so a
	// router restart keeps the promoted topology). Readers treat the
	// manifest with the highest epoch as current.
	Epoch uint64 `json:"epoch,omitempty"`
	// Files describes the per-shard snapshots, in shard order.
	Files []ManifestShard `json:"files"`
}

// ManifestShard is one shard's snapshot file in the manifest.
type ManifestShard struct {
	Shard int    `json:"shard"`
	Path  string `json:"path"` // relative to the manifest's directory
	N     int    `json:"n"`
	Seed  uint64 `json:"seed"` // the shard's derived build seed
	// Primary is the replica-set position of the shard's write primary
	// (an index into the router's replica URL list for this shard, not a
	// property of the snapshot file). 0 as written by the splitter;
	// rewritten by the router on promotion.
	Primary int `json:"primary,omitempty"`
}

// WriteManifest writes m as indented JSON to path.
func WriteManifest(path string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// WriteShardSplit writes sx into dir (which must exist) as the layout a
// routed deployment boots from: each shard's *Index as its own
// single-index snapshot shard-<s>.snap, bootable by `annsd -snapshot` or
// `-base-snapshot`, plus the placement manifest tying the files back
// into one logical index, dir/manifest.json, whose path it returns. The
// shards are exactly the ones BuildSharded produced — same round-robin
// partition, same derived seeds — so a router over these files answers
// byte-identically to one process serving sx.
func WriteShardSplit(dir string, sx *anns.ShardedIndex) (manifestPath string, err error) {
	m := &Manifest{
		FormatVersion: ManifestVersion,
		Placement:     PlacementRoundRobin,
		Shards:        sx.Shards(),
		N:             sx.Len(),
		Dimension:     sx.Options().Dimension,
		Seed:          sx.Options().Seed,
	}
	for s := 0; s < sx.Shards(); s++ {
		shard := sx.Shard(s)
		name := fmt.Sprintf("shard-%d.snap", s)
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return "", err
		}
		if err := anns.SaveIndex(f, shard); err != nil {
			f.Close()
			return "", err
		}
		if err := f.Close(); err != nil {
			return "", err
		}
		m.Files = append(m.Files, ManifestShard{
			Shard: s, Path: name, N: shard.Len(), Seed: shard.Options().Seed,
		})
	}
	manifestPath = filepath.Join(dir, "manifest.json")
	return manifestPath, WriteManifest(manifestPath, m)
}

// LoadManifest reads and validates a placement manifest. Relative file
// paths stay relative; resolve them against filepath.Dir(path).
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("router: manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("router: manifest %s: %w", path, err)
	}
	return &m, nil
}

// Validate checks the manifest's internal consistency.
func (m *Manifest) Validate() error {
	if m.FormatVersion < 1 || m.FormatVersion > ManifestVersion {
		return fmt.Errorf("format_version %d, this build understands 1..%d", m.FormatVersion, ManifestVersion)
	}
	if m.Placement != PlacementRoundRobin {
		return fmt.Errorf("unknown placement %q", m.Placement)
	}
	if m.Shards < 1 || len(m.Files) != m.Shards {
		return fmt.Errorf("%d files for %d shards", len(m.Files), m.Shards)
	}
	if m.Dimension < 2 {
		return fmt.Errorf("implausible dimension %d", m.Dimension)
	}
	total := 0
	for i, f := range m.Files {
		if f.Shard != i {
			return fmt.Errorf("file %d is labeled shard %d (files must be in shard order)", i, f.Shard)
		}
		if f.Path == "" {
			return fmt.Errorf("shard %d has no snapshot path", i)
		}
		if f.N < 2 {
			return fmt.Errorf("shard %d claims %d points", i, f.N)
		}
		if f.Primary < 0 {
			return fmt.Errorf("shard %d has negative primary position %d", i, f.Primary)
		}
		total += f.N
	}
	if total != m.N {
		return fmt.Errorf("shard sizes sum to %d, header says %d", total, m.N)
	}
	return nil
}

// ShardPath resolves shard s's snapshot path against the manifest's
// directory.
func (m *Manifest) ShardPath(manifestPath string, s int) string {
	p := m.Files[s].Path
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(filepath.Dir(manifestPath), p)
}
