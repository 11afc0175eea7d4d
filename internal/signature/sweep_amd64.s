#include "textflag.h"

// func sweepRow4(cells, a *float64, na int, cols *float64, stride, m4 int)
//
// cells[k] += |a[t] − cols[t·stride+k]| for t in [0, na), k in [0, m4),
// m4 a positive multiple of 4: fillPatternRow's sweep, four cells per YMM
// register. Four buckets go per pass (each cell loaded and stored once),
// then single-bucket passes. Every lane subtracts, clears the sign bit and
// adds in bucket order, as math.Abs and += do, with no FMA.
TEXT ·sweepRow4(SB), NOSPLIT, $0-48
	MOVQ cells+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ na+16(FP), CX
	MOVQ cols+24(FP), DX
	MOVQ stride+32(FP), R8
	MOVQ m4+40(FP), R9
	SHLQ $3, R8 // column row stride in bytes
	SHLQ $3, R9 // cell bytes

	// Y0: every lane 0x7fffffffffffffff, the sign-clearing mask.
	VPCMPEQQ Y0, Y0, Y0
	VPSRLQ   $1, Y0, Y0

	MOVQ CX, R10
	SHRQ $2, R10 // four-bucket passes
	ANDQ $3, CX  // single-bucket passes
	TESTQ R10, R10
	JZ   single

quad:
	VBROADCASTSD 0(SI), Y1
	VBROADCASTSD 8(SI), Y2
	VBROADCASTSD 16(SI), Y3
	VBROADCASTSD 24(SI), Y4
	LEAQ         (DX)(R8*1), R11 // bucket t+1's column row
	LEAQ         (DX)(R8*2), R12 // t+2
	LEAQ         (R11)(R8*2), R13 // t+3
	XORQ         AX, AX

quadcells:
	VMOVUPD (DI)(AX*1), Y5
	VSUBPD  (DX)(AX*1), Y1, Y6
	VANDPD  Y0, Y6, Y6
	VADDPD  Y6, Y5, Y5
	VSUBPD  (R11)(AX*1), Y2, Y7
	VANDPD  Y0, Y7, Y7
	VADDPD  Y7, Y5, Y5
	VSUBPD  (R12)(AX*1), Y3, Y8
	VANDPD  Y0, Y8, Y8
	VADDPD  Y8, Y5, Y5
	VSUBPD  (R13)(AX*1), Y4, Y9
	VANDPD  Y0, Y9, Y9
	VADDPD  Y9, Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R9
	JB      quadcells

	ADDQ $32, SI
	LEAQ (R13)(R8*1), DX // bucket t+4's column row
	DECQ R10
	JNZ  quad

single:
	TESTQ CX, CX
	JZ    done

singlebucket:
	VBROADCASTSD 0(SI), Y1
	XORQ         AX, AX

singlecells:
	VMOVUPD (DI)(AX*1), Y5
	VSUBPD  (DX)(AX*1), Y1, Y6
	VANDPD  Y0, Y6, Y6
	VADDPD  Y6, Y5, Y5
	VMOVUPD Y5, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R9
	JB      singlecells

	ADDQ $8, SI
	ADDQ R8, DX
	DECQ CX
	JNZ  singlebucket

done:
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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
