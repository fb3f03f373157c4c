#include "textflag.h"

// func dotLanes2(a0, a1, b []float64, out *[8]float64)
//
// Lane k of a row sums a[i+k]*b[i+k] over i = 0, 4, 8, ...: X0 holds
// a0's lanes 0,1 and X1 its lanes 2,3; X2 and X3 hold a1's. MULPD
// then ADDPD rounds every lane exactly as Dot's scalar MULSD/ADDSD
// do; never use FMA here.
TEXT ·dotLanes2(SB), NOSPLIT, $0-80
	MOVQ a0_base+0(FP), SI
	MOVQ a1_base+24(FP), DI
	MOVQ b_base+48(FP), DX
	MOVQ b_len+56(FP), CX
	MOVQ out+72(FP), AX
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	SHRQ $2, CX
	JZ   done

loop:
	MOVUPD (DX), X4
	MOVUPD 16(DX), X5
	MOVUPD (SI), X6
	MOVUPD 16(SI), X7
	MOVUPD (DI), X8
	MOVUPD 16(DI), X9
	MULPD  X4, X6
	MULPD  X5, X7
	MULPD  X4, X8
	MULPD  X5, X9
	ADDPD  X6, X0
	ADDPD  X7, X1
	ADDPD  X8, X2
	ADDPD  X9, X3
	ADDQ   $32, SI
	ADDQ   $32, DI
	ADDQ   $32, DX
	DECQ   CX
	JNZ    loop

done:
	MOVUPD X0, (AX)
	MOVUPD X1, 16(AX)
	MOVUPD X2, 32(AX)
	MOVUPD X3, 48(AX)
	RET
