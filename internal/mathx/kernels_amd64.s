#include "textflag.h"

// AVX2 kernels for Dot, Axpy, PegasosStep and Rotate. Each one runs
// the first len&^3 elements, four per iteration, and leaves the tail
// to its Go caller in kernels_amd64.go. Every product is a VMULPD and
// every sum a VADDPD or VSUBPD, which round each lane exactly as the
// portable Go code's MULSD, ADDSD and SUBSD do. Never use a fused
// multiply-add (VFMADD*) here: it rounds once where the Go code
// rounds twice. Each kernel ends with VZEROUPPER.

// func dotLanes(a, b []float64) (s0, s1, s2, s3 float64)
//
// Lane k of Y0 sums a[i+k]*b[i+k] over i = 0, 4, 8, ..., in order,
// as Dot's scalar lane s_k does. len(b) must be at least len(a).
TEXT ·dotLanes(SB), NOSPLIT, $0-80
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	SHRQ   $2, CX
	JZ     dotdone

dotloop:
	VMOVUPD (SI), Y1
	VMULPD  (DI), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     dotloop

dotdone:
	VMOVUPD Y0, s0+48(FP)
	VZEROUPPER
	RET

// func axpyLanes(a float64, x, y []float64)
//
// y[i] += a*x[i], the product rounded before the sum. len(y) must be
// at least len(x).
TEXT ·axpyLanes(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	SHRQ         $2, CX
	JZ           axpydone

axpyloop:
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyloop

axpydone:
	VZEROUPPER
	RET

// func rotateLanes(x, y []float64, s, tau float64)
//
// (x[i], y[i]) becomes (g - s*(h + g*tau), h + s*(g - h*tau)) with
// g = x[i] and h = y[i], the expressions of turn. len(y) must be at
// least len(x).
TEXT ·rotateLanes(SB), NOSPLIT, $0-64
	MOVQ         x_base+0(FP), SI
	MOVQ         x_len+8(FP), CX
	MOVQ         y_base+24(FP), DI
	VBROADCASTSD s+48(FP), Y0
	VBROADCASTSD tau+56(FP), Y1
	SHRQ         $2, CX
	JZ           rotdone

rotloop:
	VMOVUPD (SI), Y2
	VMOVUPD (DI), Y3
	VMULPD  Y1, Y2, Y4
	VADDPD  Y4, Y3, Y4
	VMULPD  Y0, Y4, Y4
	VSUBPD  Y4, Y2, Y4
	VMULPD  Y1, Y3, Y5
	VSUBPD  Y5, Y2, Y5
	VMULPD  Y0, Y5, Y5
	VADDPD  Y5, Y3, Y5
	VMOVUPD Y4, (SI)
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rotloop

rotdone:
	VZEROUPPER
	RET

// func pegasosLanes(w, avgW, x, next []float64, c, a, inv float64, hinge, avg bool) (s0, s1, s2, s3 float64)
//
// Per element: w[j] = w[j]*c, plus a*x[j] when hinge is set; when avg
// is set, avgW[j] += (w[j] - avgW[j])*inv with the new w[j]. Lane k
// of Y0 then sums w[j]*next[j] over j = k, k+4, ..., as Dot does.
// Each of the four hinge × avg variants has its own loop. avgW, x
// and next must be at least len(w) long.
TEXT ·pegasosLanes(SB), NOSPLIT, $0-160
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	MOVQ         avgW_base+24(FP), R8
	MOVQ         x_base+48(FP), R9
	MOVQ         next_base+72(FP), DI
	VBROADCASTSD c+96(FP), Y1
	VBROADCASTSD a+104(FP), Y2
	VBROADCASTSD inv+112(FP), Y3
	MOVBLZX      hinge+120(FP), AX
	MOVBLZX      avg+121(FP), BX
	VXORPD       Y0, Y0, Y0
	SHRQ         $2, CX
	JZ           pegdone
	TESTQ        AX, AX
	JZ           pegscale
	TESTQ        BX, BX
	JZ           peghinge

peghingeavg:
	VMULPD  (SI), Y1, Y4
	VMULPD  (R9), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (SI)
	VMOVUPD (R8), Y6
	VSUBPD  Y6, Y4, Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y6, (R8)
	VMULPD  (DI), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    CX
	JNZ     peghingeavg
	JMP     pegdone

peghinge:
	VMULPD  (SI), Y1, Y4
	VMULPD  (R9), Y2, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD Y4, (SI)
	VMULPD  (DI), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    CX
	JNZ     peghinge
	JMP     pegdone

pegscale:
	TESTQ BX, BX
	JZ    pegplain

pegavg:
	VMULPD  (SI), Y1, Y4
	VMOVUPD Y4, (SI)
	VMOVUPD (R8), Y6
	VSUBPD  Y6, Y4, Y7
	VMULPD  Y3, Y7, Y7
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y6, (R8)
	VMULPD  (DI), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, DI
	DECQ    CX
	JNZ     pegavg
	JMP     pegdone

pegplain:
	VMULPD  (SI), Y1, Y4
	VMOVUPD Y4, (SI)
	VMULPD  (DI), Y4, Y4
	VADDPD  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     pegplain

pegdone:
	VMOVUPD Y0, s0+128(FP)
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
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
