// Package scenario is a registry of named operation-mix workload scenarios
// in the YCSB tradition: each scenario fixes an operation mix (read /
// insert / delete ratios) and a key-popularity distribution for each
// operation class, and compiles — deterministically from a single seed —
// into a concrete per-operation schedule that load harnesses replay.
//
// Real user traffic is skewed, not uniform; the scenarios here exist so the
// serving stack is measured under the zipfian and hotspot streams it will
// actually see, and so that the query-result cache (internal/qcache) can be
// exercised honestly: a hit-rate number is only meaningful relative to a
// named, reproducible skew.
//
// Determinism follows the same discipline as internal/chaos: one root seed,
// split into labelled child streams (operation mix, read keys, write keys,
// key scramble) via the splitmix64-style rng.Source.Split, so two harness
// processes given the same seed issue byte-identical operation streams —
// which is what lets `annsload -compare` prove a cached server answers
// identically to an uncached one under churn.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/rng"
)

// OpKind discriminates schedule entries.
type OpKind int

const (
	// OpRead issues a query for key index Key in [0, QueryKeys).
	OpRead OpKind = iota
	// OpInsert inserts the point derived from key index Key in [0, WriteKeys).
	OpInsert
	// OpDelete deletes the id previously inserted for key index Key.
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// Op is one scheduled operation.
type Op struct {
	Kind OpKind
	// Key is a key index whose meaning depends on Kind: for reads it picks
	// a query from the instance's query set; for inserts it picks a source
	// point; for deletes it picks among previously inserted ids.
	Key int
}

// Dist names a key-popularity distribution.
type Dist string

const (
	// DistUniform draws keys uniformly.
	DistUniform Dist = "uniform"
	// DistZipfian draws keys zipf(θ)-distributed with a seeded scramble so
	// popular ranks scatter across the keyspace.
	DistZipfian Dist = "zipfian"
	// DistHotspot draws from a small hot set with high probability and the
	// cold remainder otherwise.
	DistHotspot Dist = "hotspot"
	// DistSequential cycles keys in order 0,1,...,n-1,0,... (scan-shaped).
	DistSequential Dist = "sequential"
)

// Scenario is a named operation mix. Ratios must sum to at most 1; the
// remainder (1 - insert - delete) is the read ratio.
type Scenario struct {
	Name        string
	Description string

	InsertRatio float64
	DeleteRatio float64

	// ReadDist picks query keys; WriteDist picks insert sources and delete
	// victims.
	ReadDist  Dist
	WriteDist Dist
}

// ReadRatio is the fraction of operations that are queries.
func (s *Scenario) ReadRatio() float64 { return 1 - s.InsertRatio - s.DeleteRatio }

// Config parameterizes schedule compilation.
type Config struct {
	// Seed is the root seed; every random choice derives from it.
	Seed uint64
	// Theta is the zipfian skew exponent (θ=0 is uniform, θ=0.99 is the
	// classic YCSB default, θ>1 is extreme skew). Also sets hotspot
	// concentration: see newGen.
	Theta float64
	// QueryKeys and WriteKeys bound the read / write key index spaces.
	QueryKeys int
	WriteKeys int
}

// Labels for Split so child streams decorrelate; values are arbitrary but
// frozen — changing them changes every compiled schedule.
const (
	tagOpMix    = 0x6f706d6978 // "opmix"
	tagReadKey  = 0x7265616473 // "reads"
	tagWriteKey = 0x7772697465 // "write"
	tagScramble = 0x7363726d62 // "scrmb"
)

// Ops compiles the scenario into a concrete schedule of total operations.
// Identical (scenario, total, cfg) always yields an identical schedule.
func (s *Scenario) Ops(total int, cfg Config) []Op {
	if cfg.QueryKeys <= 0 {
		panic("scenario: Config.QueryKeys must be positive")
	}
	if cfg.WriteKeys <= 0 {
		cfg.WriteKeys = cfg.QueryKeys
	}
	root := rng.New(cfg.Seed)
	mix := root.Split(tagOpMix)
	readGen := newGen(s.ReadDist, cfg.QueryKeys, cfg.Theta, root.Split(tagReadKey), root.Split(tagScramble))
	writeGen := newGen(s.WriteDist, cfg.WriteKeys, cfg.Theta, root.Split(tagWriteKey), root.Split(tagScramble+1))

	ops := make([]Op, total)
	insCut := s.InsertRatio
	delCut := s.InsertRatio + s.DeleteRatio
	for i := range ops {
		u := mix.Float64()
		switch {
		case u < insCut:
			ops[i] = Op{Kind: OpInsert, Key: writeGen.Next()}
		case u < delCut:
			ops[i] = Op{Kind: OpDelete, Key: writeGen.Next()}
		default:
			ops[i] = Op{Kind: OpRead, Key: readGen.Next()}
		}
	}
	return ops
}

// KeyGen yields a deterministic stream of key indices in [0, n).
type KeyGen interface {
	Next() int
}

// NewGen builds a standalone generator for dist over [0, n); exported for
// harnesses (benchmark/) that drive key streams without a full scenario.
func NewGen(dist Dist, n int, theta float64, seed uint64) KeyGen {
	root := rng.New(seed)
	return newGen(dist, n, theta, root.Split(tagReadKey), root.Split(tagScramble))
}

func newGen(dist Dist, n int, theta float64, src, scrambleSrc *rng.Source) KeyGen {
	switch dist {
	case DistZipfian:
		return newZipfian(n, theta, src, scrambleSrc)
	case DistHotspot:
		return newHotspot(n, theta, src, scrambleSrc)
	case DistSequential:
		return &sequential{n: n}
	case DistUniform, "":
		return &uniform{n: n, src: src}
	default:
		panic(fmt.Sprintf("scenario: unknown distribution %q", dist))
	}
}

type uniform struct {
	n   int
	src *rng.Source
}

func (u *uniform) Next() int { return u.src.Intn(u.n) }

type sequential struct {
	n, i int
}

func (s *sequential) Next() int {
	k := s.i
	s.i++
	if s.i == s.n {
		s.i = 0
	}
	return k
}

// zipfian samples rank r with probability ∝ 1/r^θ via a cumulative table
// and binary search. The table costs O(n) to build and O(log n) per draw,
// works for every θ ≥ 0 (including θ=1, where the YCSB closed form needs a
// special case), and its ranks are scrambled through a seeded permutation
// so the hottest keys scatter across the keyspace instead of clustering at
// index zero.
type zipfian struct {
	cdf  []float64
	perm []int
	src  *rng.Source
}

func newZipfian(n int, theta float64, src, scrambleSrc *rng.Source) *zipfian {
	if theta < 0 {
		panic("scenario: zipfian theta must be >= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipfian{cdf: cdf, perm: scrambleSrc.Perm(n), src: src}
}

func (z *zipfian) Next() int {
	u := z.src.Float64()
	r := sort.SearchFloat64s(z.cdf, u)
	if r == len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return z.perm[r]
}

// hotspot draws from a hot set of max(1, n/64) keys with probability
// min(0.9, 0.5+θ/4) and uniformly from the cold remainder otherwise; θ
// reuses the skew knob so one flag shapes both distributions.
type hotspot struct {
	perm    []int
	hotN    int
	hotProb float64
	src     *rng.Source
}

func newHotspot(n int, theta float64, src, scrambleSrc *rng.Source) *hotspot {
	hotN := n / 64
	if hotN < 1 {
		hotN = 1
	}
	p := 0.5 + theta/4
	if p > 0.9 {
		p = 0.9
	}
	return &hotspot{perm: scrambleSrc.Perm(n), hotN: hotN, hotProb: p, src: src}
}

func (h *hotspot) Next() int {
	if h.src.Bernoulli(h.hotProb) {
		return h.perm[h.src.Intn(h.hotN)]
	}
	if h.hotN == len(h.perm) {
		return h.perm[h.src.Intn(h.hotN)]
	}
	return h.perm[h.hotN+h.src.Intn(len(h.perm)-h.hotN)]
}

// registry of named scenarios.
var registry = map[string]*Scenario{}

func register(s *Scenario) *Scenario {
	registry[s.Name] = s
	return s
}

var (
	// Uniform is the pre-scenario annsload behaviour: a pure read stream
	// with uniformly popular queries.
	Uniform = register(&Scenario{
		Name:        "uniform",
		Description: "100% reads, uniform key popularity (legacy default)",
		ReadDist:    DistUniform,
	})
	// HotKeyReads is the cache showcase: a pure read stream whose
	// popularity is zipf(θ).
	HotKeyReads = register(&Scenario{
		Name:        "hot-key-reads",
		Description: "100% reads, zipfian key popularity",
		ReadDist:    DistZipfian,
	})
	// HotspotDeletes keeps a mostly-read stream but aims its deletes at a
	// small hot set, stressing cache invalidation on popular keys.
	HotspotDeletes = register(&Scenario{
		Name:        "hotspot-deletes",
		Description: "80% zipfian reads, 10% inserts, 10% hotspot deletes",
		InsertRatio: 0.10,
		DeleteRatio: 0.10,
		ReadDist:    DistZipfian,
		WriteDist:   DistHotspot,
	})
	// ScanInsertChurn interleaves sequential scan-shaped reads with a
	// write-heavy churn, the worst case for a popularity cache.
	ScanInsertChurn = register(&Scenario{
		Name:        "scan-insert-churn",
		Description: "70% sequential-scan reads, 20% inserts, 10% deletes",
		InsertRatio: 0.20,
		DeleteRatio: 0.10,
		ReadDist:    DistSequential,
		WriteDist:   DistUniform,
	})
	// ConstantOccupancy matches insert and delete rates so the mutable
	// tier's live count stays flat while generations keep advancing.
	ConstantOccupancy = register(&Scenario{
		Name:        "constant-occupancy",
		Description: "70% zipfian reads, 15% inserts, 15% deletes (flat live count)",
		InsertRatio: 0.15,
		DeleteRatio: 0.15,
		ReadDist:    DistZipfian,
		WriteDist:   DistUniform,
	})
)

// Get returns the named scenario or an error listing valid names.
func Get(name string) (*Scenario, error) {
	if s, ok := registry[name]; ok {
		return s, nil
	}
	return nil, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
}

// Names lists registered scenario names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
