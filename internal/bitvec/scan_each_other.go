//go:build !amd64

package bitvec

func hasVectorScan() bool { return false }

func (b *Block) firstWithinEachVector(keys []uint64, thr int, out []int) {
	panic("bitvec: no vector scan body on this architecture")
}
