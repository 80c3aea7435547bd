#include "textflag.h"

// func axpySSE2(a float32, x, y []float32)
//
// y[j] += a*x[j] for j < len(y); the Go wrapper has already clamped x to
// len(y). Every lane runs MULPS then ADDPS, the packed forms of the
// MULSS/ADDSS pair the compiler emits for the scalar loop: one rounded
// single-precision multiply, then one rounded add, never fused. Operand
// order mirrors the scalar code too (x·a with x as the destination, then
// product + y with the product as the destination), so when both inputs of
// an operation are NaN the same payload wins. 16 lanes per iteration, then
// 4, then a scalar tail; all loads and stores are unaligned (MOVUPS).
TEXT ·axpySSE2(SB), NOSPLIT, $0-56
	MOVSS  a+0(FP), X0
	SHUFPS $0x00, X0, X0 // broadcast a to all four lanes
	MOVQ   x_base+8(FP), SI
	MOVQ   y_base+32(FP), DI
	MOVQ   y_len+40(FP), CX

loop16:
	CMPQ   CX, $16
	JLT    loop4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	ADDPS  X8, X4
	MOVUPS X1, (DI)
	MOVUPS X2, 16(DI)
	MOVUPS X3, 32(DI)
	MOVUPS X4, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JLT    tail
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X5, X1
	MOVUPS X1, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    loop4

tail:
	TESTQ CX, CX
	JZ    done
	MOVSS (SI), X1
	MULSS X0, X1
	ADDSS (DI), X1
	MOVSS X1, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   tail

done:
	RET
