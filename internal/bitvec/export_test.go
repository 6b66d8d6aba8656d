package bitvec

import "testing"

// eachBody runs f once per FirstWithinEach body, as a subtest named after
// it. The vector leg is skipped, with the reason logged, on a machine
// that cannot run it.
func eachBody(t *testing.T, f func(t *testing.T)) {
	for _, vector := range []bool{false, true} {
		name := "portable"
		if vector {
			name = "avx512"
		}
		t.Run(name, func(t *testing.T) {
			if vector && !hasVectorScan() {
				t.Skip("no AVX512F + AVX512_VPOPCNTDQ with OS zmm state on this machine: the vector body cannot run")
			}
			useVectorScan(t, vector)
			f(t)
		})
	}
}

// useVectorScan selects the FirstWithinEach body for the rest of the test.
func useVectorScan(tb testing.TB, on bool) {
	old := useVector
	useVector = on
	tb.Cleanup(func() { useVector = old })
}
