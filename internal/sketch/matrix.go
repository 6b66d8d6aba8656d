// Package sketch implements the randomized dimension-reduction substrate of
// Definition 7 in the paper: for each distance scale αⁱ a random Boolean
// matrix whose entries are i.i.d. Bernoulli(1/(4αⁱ)), applied to points over
// GF(2). The accurate matrices M_i (c₁·log n rows) define the ball
// approximations C_i, and the coarse matrices N_j ((c₂/s)·log n rows) define
// the weak approximations D_{i,j} used by Algorithm 2.
package sketch

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/rng"
)

// Matrix is a random Boolean matrix with dense bit-packed rows stored in
// one flat bitvec.Block (row-major contiguous words, no nested slices),
// so a matrix serializes to and from a snapshot wholesale.
type Matrix struct {
	NumRows int
	Dim     int
	P       float64 // per-entry Bernoulli parameter the matrix was drawn with
	block   bitvec.Block
}

// NewBernoulli draws a rows×d matrix with i.i.d. Bernoulli(p) entries from
// the given source. Rows are sampled by geometric gap skipping, so sparse
// scales (large αⁱ) cost O(d·p) per row rather than O(d).
func NewBernoulli(r *rng.Source, numRows, d int, p float64) *Matrix {
	if numRows <= 0 || d <= 0 {
		panic(fmt.Sprintf("sketch: invalid matrix shape %dx%d", numRows, d))
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("sketch: invalid Bernoulli parameter %v", p))
	}
	m := &Matrix{NumRows: numRows, Dim: d, P: p, block: bitvec.NewBlock(numRows, d)}
	logq := math.Log1p(-p) // ln(1-p) < 0
	for i := 0; i < numRows; i++ {
		row := m.block.Row(i)
		if p >= 0.2 {
			// Dense regime: direct per-bit sampling is cheaper than skipping.
			for j := 0; j < d; j++ {
				if r.Bernoulli(p) {
					row.Set(j, true)
				}
			}
		} else {
			for j := skip(r, logq); j < d; j += 1 + skip(r, logq) {
				row.Set(j, true)
			}
		}
	}
	return m
}

// MatrixFromBlock rebinds a matrix to an already-materialized row block
// (the snapshot load path). The block must hold numRows rows of
// Words(d) words.
func MatrixFromBlock(numRows, d int, p float64, block bitvec.Block) (*Matrix, error) {
	if block.RowWords != bitvec.Words(d) || block.Rows() != numRows {
		return nil, fmt.Errorf("sketch: block is %dx%d words, want %dx%d for a %dx%d matrix",
			block.Rows(), block.RowWords, numRows, bitvec.Words(d), numRows, d)
	}
	return &Matrix{NumRows: numRows, Dim: d, P: p, block: block}, nil
}

// Block exposes the flat row storage (shared, not copied) for snapshot
// serialization.
func (m *Matrix) Block() bitvec.Block { return m.block }

// skip draws a geometric gap: the number of failures before the next
// success of a Bernoulli(p) process, where logq = ln(1-p).
func skip(r *rng.Source, logq float64) int {
	u := r.Float64()
	if u == 0 {
		u = 0.5
	}
	g := math.Log(u) / logq
	if g >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int(g)
}

// Row returns row i (a view into the flat block; callers must not mutate it).
func (m *Matrix) Row(i int) bitvec.Vector { return m.block.Row(i) }

// Apply computes y = Mx over GF(2): bit i of the result is the parity of
// the AND of row i with x. The result has m.NumRows bits.
func (m *Matrix) Apply(x bitvec.Vector) bitvec.Vector {
	return m.ApplyInto(bitvec.New(m.NumRows), x)
}

// ApplyInto computes y = Mx into dst, reusing dst's storage (the query
// hot path applies sketches into per-level scratch buffers). dst must
// have Words(m.NumRows) words. Each output word is accumulated in a
// register — 64 row parities OR'd together — and written once, which
// folds the zeroing into the kernel (no separate clearing pass, no
// per-bit read-modify-write on dst).
func (m *Matrix) ApplyInto(dst bitvec.Vector, x bitvec.Vector) bitvec.Vector {
	row := 0
	for o := range dst {
		end := row + 64
		if end > m.NumRows {
			end = m.NumRows
		}
		var w uint64
		for bit := uint(0); row < end; row, bit = row+1, bit+1 {
			w |= uint64(bitvec.Parity(m.block.Row(row), x)) << bit
		}
		dst[o] = w
	}
	return dst
}

// batchWidth is the register-blocking factor of ApplyBatchInto: each
// matrix row word is loaded once and folded against this many queries.
// Four keeps the accumulators and slice bases within the general-purpose
// register budget on amd64/arm64.
const batchWidth = 4

// ApplyBatchInto computes dsts[q] = M·xs[q] for every q, equivalent to
// len(xs) independent ApplyInto calls but traversing the matrix once per
// batchWidth queries instead of once per query: the dominant cost on
// large matrices is streaming the rows through the cache hierarchy, and
// the blocked loop amortizes each row-word load across the block.
// len(dsts) must equal len(xs); shapes follow the ApplyInto contract.
func (m *Matrix) ApplyBatchInto(dsts, xs []bitvec.Vector) {
	if len(dsts) != len(xs) {
		panic(fmt.Sprintf("sketch: batch shape mismatch: %d dsts, %d queries", len(dsts), len(xs)))
	}
	base := 0
	for ; base+batchWidth <= len(xs); base += batchWidth {
		m.applyBlock4(dsts[base:base+batchWidth], xs[base:base+batchWidth])
	}
	for ; base < len(xs); base++ {
		m.ApplyInto(dsts[base], xs[base])
	}
}

// ApplyBlockInto computes dst.Row(i) = M·src.Row(i) for every row of src
// — the build path, used when a whole database block is sketched at once
// (eager builds, segment seals, compactions, lazy per-level sketches).
// Blocks large enough to share Four-Russians byte tables go through them
// (applyBlockTables); smaller ones take the row-parity kernel. Both give
// the same bits. dst must have src.Rows() rows of Words(m.NumRows) words.
func (m *Matrix) ApplyBlockInto(dst, src bitvec.Block) {
	n := src.Rows()
	if dst.Rows() != n {
		panic(fmt.Sprintf("sketch: block shape mismatch: %d dst rows, %d src rows", dst.Rows(), n))
	}
	if fourRussiansPays(n, m.Dim, m.NumRows) {
		m.applyBlockTables(dst, src)
		return
	}
	m.applyBlockParity(dst, src)
}

// applyBlockParity is ApplyBlockInto through the row-parity kernel
// (applyBlock4 over groups of batchWidth points, ApplyInto for the tail).
func (m *Matrix) applyBlockParity(dst, src bitvec.Block) {
	n := src.Rows()
	var ds, ss [batchWidth]bitvec.Vector
	i := 0
	for ; i+batchWidth <= n; i += batchWidth {
		for j := 0; j < batchWidth; j++ {
			ds[j] = dst.Row(i + j)
			ss[j] = src.Row(i + j)
		}
		m.applyBlock4(ds[:], ss[:])
	}
	for ; i < n; i++ {
		m.ApplyInto(dst.Row(i), src.Row(i))
	}
}

// applyBlock4 is the register-blocked inner kernel: exactly batchWidth
// queries, accumulators and slice bases hoisted into locals so each matrix
// row word is loaded once and folded against all four queries.
func (m *Matrix) applyBlock4(dsts, xs []bitvec.Vector) {
	x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
	d0, d1, d2, d3 := dsts[0], dsts[1], dsts[2], dsts[3]
	row := 0
	for o := range d0 {
		end := row + 64
		if end > m.NumRows {
			end = m.NumRows
		}
		var w0, w1, w2, w3 uint64
		for bit := uint(0); row < end; row, bit = row+1, bit+1 {
			r := m.block.Row(row)
			// Reslicing the queries to the row length lets the compiler
			// drop the four bounds checks in the fold loop.
			y0, y1, y2, y3 := x0[:len(r)], x1[:len(r)], x2[:len(r)], x3[:len(r)]
			var f0, f1, f2, f3 uint64
			for j, rj := range r {
				f0 ^= rj & y0[j]
				f1 ^= rj & y1[j]
				f2 ^= rj & y2[j]
				f3 ^= rj & y3[j]
			}
			w0 |= uint64(bits.OnesCount64(f0)&1) << bit
			w1 |= uint64(bits.OnesCount64(f1)&1) << bit
			w2 |= uint64(bits.OnesCount64(f2)&1) << bit
			w3 |= uint64(bits.OnesCount64(f3)&1) << bit
		}
		d0[o], d1[o], d2[o], d3[o] = w0, w1, w2, w3
	}
}

// SketchDistance returns the Hamming distance between two sketches. It is a
// convenience alias that documents intent at call sites.
func SketchDistance(a, b bitvec.Vector) int { return bitvec.Distance(a, b) }

// ExpectedFraction returns the expected normalized sketch distance between
// two points at Hamming distance dist, for a matrix drawn with parameter p:
// each row's parity bits differ independently with probability
// ½(1 − (1−2p)^dist).
func ExpectedFraction(p float64, dist float64) float64 {
	return 0.5 * (1 - math.Pow(1-2*p, dist))
}

// Delta is the paper's δ(β, α): with p = 1/(4β), it equals the gap between
// the expected normalized sketch distances at point distances αβ and β,
//
//	δ(β,α) = ½(1−1/(2β))^β · [1 − (1−1/(2β))^{(α−1)β}]
//	       = f(αβ) − f(β)   where f(D) = ½(1 − (1−1/(2β))^D).
func Delta(beta, alpha float64) float64 {
	base := 1 - 1/(2*beta)
	return 0.5 * math.Pow(base, beta) * (1 - math.Pow(base, (alpha-1)*beta))
}
