package bitvec

import "fmt"

// The multi-key form of the first-match scan. Inside one round of a
// k-round scheme every address is known before anything is read, so the
// cold cells a batch of queries probes in one table are answered by one
// pass over that table's block instead of one pass per cell.
//
// Two bodies, chosen by the hardware alone. On amd64 with AVX512F,
// AVX512_VPOPCNTDQ and OS-enabled zmm state the scan runs in assembly with
// lanes = keys (scan_each_amd64.s): up to eight keys per pass, their words
// transposed so word j of every key shares one vector, each row word
// broadcast against it. That body streams a block at about the same cost
// for one key as for eight. Everywhere else the portable body is the loop
// over FirstWithin — the contract itself.

// laneKeys is the number of keys one vector pass serves: the 64-bit lanes
// of a 512-bit register.
const laneKeys = 8

// useVector selects the assembly body. It is fixed at start-up from CPUID;
// tests flip it (export_test.go) to hold each body to the plain loop.
var useVector = hasVectorScan()

// ScanKernel names the body FirstWithinEach runs on this machine:
// "avx512" or "portable".
func ScanKernel() string {
	if useVector {
		return "avx512"
	}
	return "portable"
}

// FirstWithinEach sets out[q], for every q, to the lowest row index within
// distance thr of key q, or -1 when no row qualifies — by contract what
// FirstWithin returns for that key. keys holds len(out) keys of RowWords
// words each, back to back.
func (b *Block) FirstWithinEach(keys []uint64, thr int, out []int) {
	if len(keys) != len(out)*b.RowWords {
		panic(fmt.Sprintf("bitvec: scan of %d keys got %d key words, block rows have %d",
			len(out), len(keys), b.RowWords))
	}
	if useVector && thr >= 0 && b.Rows() > 0 {
		b.firstWithinEachVector(keys, thr, out)
		return
	}
	w := b.RowWords
	for q := range out {
		out[q] = b.FirstWithin(keys[q*w:(q+1)*w], thr)
	}
}
