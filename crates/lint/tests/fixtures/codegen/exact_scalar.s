	.text
	.file	"exact_scalar.rs"
# The same exact tile after it lost its vectorization: the multiply and
# the add stay separate, as they must, but one lane at a time (vmulss /
# vaddss), so no packed instruction is left anywhere.
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
	vmovss	(%rsi,%r8,4), %xmm5
	vmovss	(%rsi,%r9,4), %xmm6
	vmovss	(%rsi,%r10,4), %xmm7
	vmovss	(%rsi,%r11,4), %xmm8
	vmovss	(%rdx,%rax,4), %xmm4
	vmulss	%xmm4, %xmm5, %xmm9
	vmulss	%xmm4, %xmm6, %xmm10
	vmulss	%xmm4, %xmm7, %xmm11
	vmulss	%xmm4, %xmm8, %xmm12
	vaddss	%xmm9, %xmm0, %xmm0
	vaddss	%xmm10, %xmm1, %xmm1
	vaddss	%xmm11, %xmm2, %xmm2
	vaddss	%xmm12, %xmm3, %xmm3
	addq	$1, %rax
	cmpq	%rcx, %rax
	jb	.LBB0_2
.LBB0_3:
	vmovss	%xmm0, 0(%rdi)
	vmovss	%xmm1, 4(%rdi)
	vmovss	%xmm2, 8(%rdi)
	vmovss	%xmm3, 12(%rdi)
	vzeroupper
	retq
	.cfi_endproc
.Lfunc_end0:
	.size	_ZN6neural6layers4lstm12project_tile17h0123456789abcdefE, .Lfunc_end0-_ZN6neural6layers4lstm12project_tile17h0123456789abcdefE
