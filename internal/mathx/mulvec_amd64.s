#include "textflag.h"

// func dotLanes4(a0, a1, a2, a3, b []float64, out *[16]float64)
//
// Lane k of a row sums a[i+k]*b[i+k] over i = 0, 4, 8, ...: Y0 holds
// a0's lanes 0-3, Y1 a1's, Y2 a2's and Y3 a3's. Each 4-column block
// loads b once into Y4. VMULPD then VADDPD rounds every lane exactly
// as Dot's scalar MULSD/ADDSD do; never use FMA here.
TEXT ·dotLanes4(SB), NOSPLIT, $0-128
	MOVQ a0_base+0(FP), SI
	MOVQ a1_base+24(FP), DI
	MOVQ a2_base+48(FP), R8
	MOVQ a3_base+72(FP), R9
	MOVQ b_base+96(FP), DX
	MOVQ b_len+104(FP), CX
	MOVQ out+120(FP), AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	SHRQ   $2, CX
	JZ     done

loop:
	VMOVUPD (DX), Y4
	VMULPD  (SI), Y4, Y5
	VMULPD  (DI), Y4, Y6
	VMULPD  (R8), Y4, Y7
	VMULPD  (R9), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DX
	DECQ    CX
	JNZ     loop

done:
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Reads XCR0. Call it only when CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
