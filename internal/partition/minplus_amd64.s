#include "textflag.h"

// func minPlusSSE2(a, b []float64) float64
//
// Four two-lane accumulators take eight candidates per iteration, one
// two-lane accumulator takes the remaining pairs, and MINSD takes the odd
// last candidate. Every accumulator starts at math.MaxFloat64, the inf
// sentinel, which an empty a returns. MOVUPD loads carry no alignment
// requirement, so the operands may start at any element.
TEXT ·minPlusSSE2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVQ $0x7FEFFFFFFFFFFFFF, AX
	MOVQ AX, X0
	PUNPCKLQDQ X0, X0
	MOVAPD X0, X1
	MOVAPD X0, X2
	MOVAPD X0, X3
	CMPQ CX, $8
	JLT  pairs

loop8:
	MOVUPD 0(SI), X4
	MOVUPD 16(SI), X5
	MOVUPD 32(SI), X6
	MOVUPD 48(SI), X7
	MOVUPD 0(DI), X8
	MOVUPD 16(DI), X9
	MOVUPD 32(DI), X10
	MOVUPD 48(DI), X11
	ADDPD  X8, X4
	ADDPD  X9, X5
	ADDPD  X10, X6
	ADDPD  X11, X7
	MINPD  X4, X0
	MINPD  X5, X1
	MINPD  X6, X2
	MINPD  X7, X3
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $8, CX
	CMPQ   CX, $8
	JGE    loop8

pairs:
	MINPD X1, X0
	MINPD X3, X2
	MINPD X2, X0
	CMPQ  CX, $2
	JLT   fold

loop2:
	MOVUPD (SI), X4
	MOVUPD (DI), X8
	ADDPD  X8, X4
	MINPD  X4, X0
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $2, CX
	CMPQ   CX, $2
	JGE    loop2

fold:
	MOVAPD   X0, X1
	UNPCKHPD X1, X1
	MINSD    X1, X0
	TESTQ    CX, CX
	JZ       done
	MOVSD    (SI), X4
	ADDSD    (DI), X4
	MINSD    X4, X0

done:
	MOVSD X0, ret+48(FP)
	RET
