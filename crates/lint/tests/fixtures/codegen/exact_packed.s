	.text
	.file	"exact_packed.rs"
# An exact projection tile as the audit wants it: four gate rows times
# eight lanes in ymm accumulators, each step a packed multiply then a
# separate packed add (never an FMA, which would round once instead of
# twice), unrolled four steps deep in the innermost loop.
	.p2align	4
	.type	_ZN6neural6layers4lstm12project_tile17h0123456789abcdefE,@function
_ZN6neural6layers4lstm12project_tile17h0123456789abcdefE:
	.cfi_startproc
	vxorps	%xmm0, %xmm0, %xmm0
	vxorps	%xmm1, %xmm1, %xmm1
	vxorps	%xmm2, %xmm2, %xmm2
	vxorps	%xmm3, %xmm3, %xmm3
	testq	%rcx, %rcx
	je	.LBB0_3
	xorl	%eax, %eax
.LBB0_2:
	vmovups	0(%rdx,%rax,8), %ymm4
	vbroadcastss	0(%rsi,%r8), %ymm5
	vbroadcastss	0(%rsi,%r9), %ymm6
	vbroadcastss	0(%rsi,%r10), %ymm7
	vbroadcastss	0(%rsi,%r11), %ymm8
	vmulps	%ymm4, %ymm5, %ymm9
	vmulps	%ymm4, %ymm6, %ymm10
	vmulps	%ymm4, %ymm7, %ymm11
	vmulps	%ymm4, %ymm8, %ymm12
	vaddps	%ymm9, %ymm0, %ymm0
	vaddps	%ymm10, %ymm1, %ymm1
	vaddps	%ymm11, %ymm2, %ymm2
	vaddps	%ymm12, %ymm3, %ymm3
	vmovups	32(%rdx,%rax,8), %ymm4
	vbroadcastss	4(%rsi,%r8), %ymm5
	vbroadcastss	4(%rsi,%r9), %ymm6
	vbroadcastss	4(%rsi,%r10), %ymm7
	vbroadcastss	4(%rsi,%r11), %ymm8
	vmulps	%ymm4, %ymm5, %ymm9
	vmulps	%ymm4, %ymm6, %ymm10
	vmulps	%ymm4, %ymm7, %ymm11
	vmulps	%ymm4, %ymm8, %ymm12
	vaddps	%ymm9, %ymm0, %ymm0
	vaddps	%ymm10, %ymm1, %ymm1
	vaddps	%ymm11, %ymm2, %ymm2
	vaddps	%ymm12, %ymm3, %ymm3
	vmovups	64(%rdx,%rax,8), %ymm4
	vbroadcastss	8(%rsi,%r8), %ymm5
	vbroadcastss	8(%rsi,%r9), %ymm6
	vbroadcastss	8(%rsi,%r10), %ymm7
	vbroadcastss	8(%rsi,%r11), %ymm8
	vmulps	%ymm4, %ymm5, %ymm9
	vmulps	%ymm4, %ymm6, %ymm10
	vmulps	%ymm4, %ymm7, %ymm11
	vmulps	%ymm4, %ymm8, %ymm12
	vaddps	%ymm9, %ymm0, %ymm0
	vaddps	%ymm10, %ymm1, %ymm1
	vaddps	%ymm11, %ymm2, %ymm2
	vaddps	%ymm12, %ymm3, %ymm3
	vmovups	96(%rdx,%rax,8), %ymm4
	vbroadcastss	12(%rsi,%r8), %ymm5
	vbroadcastss	12(%rsi,%r9), %ymm6
	vbroadcastss	12(%rsi,%r10), %ymm7
	vbroadcastss	12(%rsi,%r11), %ymm8
	vmulps	%ymm4, %ymm5, %ymm9
	vmulps	%ymm4, %ymm6, %ymm10
	vmulps	%ymm4, %ymm7, %ymm11
	vmulps	%ymm4, %ymm8, %ymm12
	vaddps	%ymm9, %ymm0, %ymm0
	vaddps	%ymm10, %ymm1, %ymm1
	vaddps	%ymm11, %ymm2, %ymm2
	vaddps	%ymm12, %ymm3, %ymm3
	addq	$4, %rax
	cmpq	%rcx, %rax
	jb	.LBB0_2
.LBB0_3:
	vmovups	%ymm0, 0(%rdi)
	vmovups	%ymm1, 32(%rdi)
	vmovups	%ymm2, 64(%rdi)
	vmovups	%ymm3, 96(%rdi)
	vzeroupper
	retq
	.cfi_endproc
.Lfunc_end0:
	.size	_ZN6neural6layers4lstm12project_tile17h0123456789abcdefE, .Lfunc_end0-_ZN6neural6layers4lstm12project_tile17h0123456789abcdefE
