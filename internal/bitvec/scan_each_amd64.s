#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// The multi-key first-match bodies. Lanes are keys: tkeys holds the ≤ 8
// keys of one pass transposed, word j of every key in the 8 qwords at
// tkeys[8j:]. A row word is broadcast against such a vector, so one pass
// over the block serves every lane.
//
//	K1  live lanes (keys with no match yet)
//	K2  live lanes whose running distance is still ≤ thr
//	Z31 thr in every lane        Z30 the row index in every lane
//	Z8  running distances        SI  the row        AX its index
//
// A row is dropped at the first check that finds K2 empty (partial sums
// only grow, so no live lane can still match). A row that ends with K2
// non-empty is the first match of those lanes: its index goes to their
// out slots and they leave K1; the scan stops when K1 is empty.

// func firstEachAVX512(words *uint64, rows, w int, tkeys *uint64, thr, live int, out *int)
TEXT ·firstEachAVX512(SB), NOSPLIT, $0-56
	MOVQ words+0(FP), SI
	MOVQ rows+8(FP), CX
	MOVQ w+16(FP), R8
	MOVQ tkeys+24(FP), R9
	MOVQ thr+32(FP), AX
	VPBROADCASTQ AX, Z31
	MOVQ live+40(FP), AX
	KMOVW AX, K1
	MOVQ out+48(FP), R10
	MOVQ R8, R11
	SHLQ $3, R11 // row stride in bytes
	MOVQ R11, R12
	SHLQ $5, R12 // prefetch distance: 32 rows
	XORQ AX, AX

row:
	PREFETCHT0 (SI)(R12*1)
	VPXORQ Z8, Z8, Z8
	MOVQ R9, DI
	MOVQ SI, BX
	MOVQ R8, DX

pair:
	CMPQ DX, $2
	JLT  tail
	VMOVDQU64 (DI), Z9
	VMOVDQU64 64(DI), Z10
	VPXORQ.BCST (BX), Z9, Z9
	VPXORQ.BCST 8(BX), Z10, Z10
	VPOPCNTQ Z9, Z9
	VPOPCNTQ Z10, Z10
	VPADDQ Z9, Z8, Z8
	VPADDQ Z10, Z8, Z8
	ADDQ $128, DI
	ADDQ $16, BX
	SUBQ $2, DX
	VPCMPQ $2, Z31, Z8, K1, K2
	KORTESTW K2, K2
	JZ   next
	JMP  pair

tail:
	TESTQ DX, DX
	JZ   match
	VMOVDQU64 (DI), Z9
	VPXORQ.BCST (BX), Z9, Z9
	VPOPCNTQ Z9, Z9
	VPADDQ Z9, Z8, Z8
	VPCMPQ $2, Z31, Z8, K1, K2
	KORTESTW K2, K2
	JZ   next

match:
	VPBROADCASTQ AX, Z30
	VMOVDQU64 Z30, K2, (R10)
	KANDNW K1, K2, K1
	KORTESTW K1, K1
	JZ   done

next:
	ADDQ R11, SI
	INCQ AX
	CMPQ AX, CX
	JLT  row

done:
	VZEROUPPER
	RET

// func firstEach6AVX512(words *uint64, rows int, tkeys *uint64, thr, live int, out *int)
//
// The body for 6-word rows (⌈24·log₂n⌉-bit sketches at n = 16 384): the
// six key vectors stay in Z0–Z5 for the whole scan.
TEXT ·firstEach6AVX512(SB), NOSPLIT, $0-48
	MOVQ words+0(FP), SI
	MOVQ rows+8(FP), CX
	MOVQ tkeys+16(FP), R9
	MOVQ thr+24(FP), AX
	VPBROADCASTQ AX, Z31
	MOVQ live+32(FP), AX
	KMOVW AX, K1
	MOVQ out+40(FP), R10
	VMOVDQU64 (R9), Z0
	VMOVDQU64 64(R9), Z1
	VMOVDQU64 128(R9), Z2
	VMOVDQU64 192(R9), Z3
	VMOVDQU64 256(R9), Z4
	VMOVDQU64 320(R9), Z5
	XORQ AX, AX

row6:
	PREFETCHT0 1536(SI)
	VPXORQ.BCST (SI), Z0, Z8
	VPXORQ.BCST 8(SI), Z1, Z9
	VPOPCNTQ Z8, Z8
	VPOPCNTQ Z9, Z9
	VPADDQ Z9, Z8, Z8
	VPXORQ.BCST 16(SI), Z2, Z10
	VPXORQ.BCST 24(SI), Z3, Z11
	VPOPCNTQ Z10, Z10
	VPOPCNTQ Z11, Z11
	VPADDQ Z10, Z8, Z8
	VPADDQ Z11, Z8, Z8
	VPCMPQ $2, Z31, Z8, K1, K2
	KORTESTW K2, K2
	JZ   next6
	VPXORQ.BCST 32(SI), Z4, Z12
	VPXORQ.BCST 40(SI), Z5, Z13
	VPOPCNTQ Z12, Z12
	VPOPCNTQ Z13, Z13
	VPADDQ Z12, Z8, Z8
	VPADDQ Z13, Z8, Z8
	VPCMPQ $2, Z31, Z8, K1, K2
	KORTESTW K2, K2
	JZ   next6
	VPBROADCASTQ AX, Z30
	VMOVDQU64 Z30, K2, (R10)
	KANDNW K1, K2, K1
	KORTESTW K1, K1
	JZ   done6

next6:
	ADDQ $48, SI
	INCQ AX
	CMPQ AX, CX
	JLT  row6

done6:
	VZEROUPPER
	RET
