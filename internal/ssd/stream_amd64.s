//go:build !race

#include "textflag.h"

// func streamCopy(dst, src *byte, n int)
TEXT ·streamCopy(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $6, CX
	JZ   done

loop:
	MOVOU 0(SI), X0
	MOVOU 16(SI), X1
	MOVOU 32(SI), X2
	MOVOU 48(SI), X3
	MOVNTO X0, 0(DI)
	MOVNTO X1, 16(DI)
	MOVNTO X2, 32(DI)
	MOVNTO X3, 48(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop
	SFENCE

done:
	RET
