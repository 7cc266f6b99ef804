//! Blocked batch×weights GEMM primitives over packed transposed weights.
//!
//! `Network::predict`'s dense layers compute `y[u] = bias[u] + dot(w_row_u, x)`
//! — a reduction whose strict IEEE evaluation order LLVM cannot
//! vectorize. These kernels instead stream the *packed transposed*
//! weight matrix `wt[k][n]` k-major and compute register-tiled panels:
//! the main path holds a `MR×NR` accumulator tile (4 rows × 16 output
//! units — eight 256-bit vectors) in registers across the entire
//! k loop, so each output element is loaded and stored exactly once
//! instead of once per k. Column and row tails fall back to a k-major
//! axpy (`y[u] += x[k] * wt[k][u]`) whose contiguous inner loop still
//! autovectorizes (the blocking strategy documented in DESIGN.md §15).
//!
//! Accumulation association differs from `Network::predict` (same term
//! order, different parenthesization), and the inner updates use
//! `f32::mul_add` — a correctly-rounded fused multiply-add on every
//! target (hardware FMA where available, libm `fmaf` otherwise), so
//! results are deterministic across machines while rounding once per
//! term instead of twice. Both are exactly why the batched kernels are
//! tolerance-gated rather than bit-identity-gated.

/// Row-tile height of the register microkernel.
const MR: usize = 4;
/// Column-tile width of the register microkernel (two 256-bit lanes).
const NR: usize = 16;

/// Packs a row-major `[rows][cols]` matrix into column-major
/// `[cols][rows]` (i.e. `out[k * rows + u] = w[u * cols + k]`), the
/// layout the k-major kernels stream.
pub(crate) fn pack_transposed(rows: usize, cols: usize, w: &[f32]) -> Vec<f32> {
    debug_assert_eq!(w.len(), rows * cols);
    let mut out = vec![0.0f32; rows * cols];
    for u in 0..rows {
        for k in 0..cols {
            out[k * rows + u] = w[u * cols + k];
        }
    }
    out
}

/// `y_row(r) = bias + x_row(r) · wt` for `rows` rows.
///
/// * `x_row(r)` is `x[r * k_len ..][.. k_len]`.
/// * `y_row(r)` is `y[y_offset + r * y_stride ..][.. n]` (strided output
///   lets conv/local kernels write position-major blocks in place).
/// * `wt` is `[k_len][n]` packed transposed (see [`pack_transposed`]).
///
/// Panic-free by construction (codegen-audited `kernel-no-panic`):
/// size-contract violations bail out instead of panicking; debug builds
/// still assert.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn gemm_bias(
    rows: usize,
    k_len: usize,
    n: usize,
    x: &[f32],
    wt: &[f32],
    bias: &[f32],
    y: &mut [f32],
    y_stride: usize,
    y_offset: usize,
) {
    debug_assert!(y_stride >= n && bias.len() == n && wt.len() == k_len * n);
    for r in 0..rows {
        let base = y_offset + r * y_stride;
        let Some(yrow) = y.get_mut(base..).and_then(|s| s.get_mut(..n)) else {
            return;
        };
        for (d, &s) in yrow.iter_mut().zip(bias) {
            *d = s;
        }
    }
    gemm_acc(rows, k_len, n, x, wt, y, y_stride, y_offset);
}

/// Like [`gemm_bias`] but accumulates into the existing contents of `y`
/// instead of initializing from a bias vector: `gemm_bias` runs it after
/// its bias row-fill.
///
/// Panic-free by construction (codegen-audited `kernel-no-panic`): the
/// slice guards that were previously panic edges now bail out of the
/// kernel, so the emitted body contains no `core::panicking` calls at
/// all. Branch structure — and therefore vectorization — is unchanged:
/// every guard is loop-invariant and hoisted exactly as before.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn gemm_acc(
    rows: usize,
    k_len: usize,
    n: usize,
    x: &[f32],
    wt: &[f32],
    y: &mut [f32],
    y_stride: usize,
    y_offset: usize,
) {
    debug_assert!(y_stride >= n && wt.len() == k_len * n);
    #[inline(always)]
    fn row_of(x: &[f32], r: usize, k_len: usize) -> Option<&[f32]> {
        x.get(r * k_len..).and_then(|s| s.get(..k_len))
    }
    if n == 0 {
        return; // guards the chunks_exact(n) panic edge on degenerate shapes
    }
    let n_main = n - n % NR;
    let mut r = 0usize;
    while r + MR <= rows {
        let (Some(x0), Some(x1), Some(x2), Some(x3)) = (
            row_of(x, r, k_len),
            row_of(x, r + 1, k_len),
            row_of(x, r + 2, k_len),
            row_of(x, r + 3, k_len),
        ) else {
            return;
        };
        let xz = x0.iter().zip(x1).zip(x2.iter().zip(x3));
        let mut j = 0usize;
        while j < n_main {
            // Register tile: 4×16 accumulators live across the whole
            // k loop; y is touched once per tile, not once per k. The
            // chunked/zipped iteration keeps every bounds check
            // loop-invariant (`j + NR <= n` only), so the body compiles
            // to eight FMAs plus three loads per k.
            let mut acc = [[0.0f32; NR]; MR];
            for (wrow, ((&xv0, &xv1), (&xv2, &xv3))) in wt.chunks_exact(n).zip(xz.clone()) {
                let Some(wv) = wrow.get(j..).and_then(|s| s.get(..NR)) else {
                    return;
                };
                let xs = [xv0, xv1, xv2, xv3];
                for (am, &xv) in acc.iter_mut().zip(&xs) {
                    for (a, &w) in am.iter_mut().zip(wv) {
                        *a = xv.mul_add(w, *a);
                    }
                }
            }
            for (m, am) in acc.iter().enumerate() {
                let base = y_offset + (r + m) * y_stride + j;
                let Some(yrow) = y.get_mut(base..).and_then(|s| s.get_mut(..NR)) else {
                    return;
                };
                for (yy, &a) in yrow.iter_mut().zip(am) {
                    *yy += a;
                }
            }
            j += NR;
        }
        if j < n {
            // Column tail (< NR wide): k-major axpy over the leftover
            // columns of these four rows.
            for m in 0..MR {
                let Some(xm) = row_of(x, r + m, k_len) else {
                    return;
                };
                let base = y_offset + (r + m) * y_stride;
                let Some(ytail) = y
                    .get_mut(base..)
                    .and_then(|s| s.get_mut(..n))
                    .and_then(|s| s.get_mut(j..))
                else {
                    return;
                };
                for (wrow, &xv) in wt.chunks_exact(n).zip(xm) {
                    for (yv, &wv) in ytail.iter_mut().zip(wrow.get(j..).unwrap_or(&[])) {
                        *yv = xv.mul_add(wv, *yv);
                    }
                }
            }
        }
        r += MR;
    }
    while r < rows {
        // Row tail (< MR rows): full-width k-major axpy, contiguous
        // inner loop over all n output units.
        let Some(x0) = row_of(x, r, k_len) else {
            return;
        };
        let base = y_offset + r * y_stride;
        let Some(yrow) = y.get_mut(base..).and_then(|s| s.get_mut(..n)) else {
            return;
        };
        for (wrow, &xv) in wt.chunks_exact(n).zip(x0) {
            for (a, &wv) in yrow.iter_mut().zip(wrow) {
                *a = xv.mul_add(wv, *a);
            }
        }
        r += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_transposed_round_trips_indices() {
        // 2×3 row-major: [[1,2,3],[4,5,6]] -> [3][2]: [1,4,2,5,3,6]
        let w = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(pack_transposed(2, 3, &w), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn gemm_bias_matches_naive_for_odd_and_even_rows() {
        let (k_len, n) = (5, 3);
        let w: Vec<f32> = (0..n * k_len).map(|i| (i as f32 * 0.3).sin()).collect();
        let wt = pack_transposed(n, k_len, &w);
        let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.1).collect();
        for rows in [1usize, 2, 3, 8] {
            let x: Vec<f32> = (0..rows * k_len).map(|i| (i as f32 * 0.7).cos()).collect();
            let mut y = vec![0.0f32; rows * n];
            gemm_bias(rows, k_len, n, &x, &wt, &bias, &mut y, n, 0);
            for r in 0..rows {
                for u in 0..n {
                    let mut want = bias[u];
                    for k in 0..k_len {
                        want += x[r * k_len + k] * w[u * k_len + k];
                    }
                    assert!((y[r * n + u] - want).abs() < 1e-5, "rows={rows} r={r} u={u}");
                }
            }
        }
    }

    #[test]
    fn gemm_bias_exercises_every_tile_path() {
        // rows=7 hits the 4-row microkernel plus a 3-row tail; n=37
        // hits two full 16-wide tiles plus a 5-column tail.
        let (rows, k_len, n) = (7usize, 11usize, 37usize);
        let w: Vec<f32> = (0..n * k_len).map(|i| (i as f32 * 0.13).sin()).collect();
        let wt = pack_transposed(n, k_len, &w);
        let bias: Vec<f32> = (0..n).map(|i| (i as f32 * 0.21).cos()).collect();
        let x: Vec<f32> = (0..rows * k_len).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut y = vec![0.0f32; rows * n];
        gemm_bias(rows, k_len, n, &x, &wt, &bias, &mut y, n, 0);
        for r in 0..rows {
            for u in 0..n {
                let mut want = bias[u];
                for k in 0..k_len {
                    want += x[r * k_len + k] * w[u * k_len + k];
                }
                assert!((y[r * n + u] - want).abs() < 1e-4, "r={r} u={u}");
            }
        }
    }

    #[test]
    fn gemm_acc_adds_on_top_of_existing_values() {
        let (rows, k_len, n) = (3, 4, 2);
        let w: Vec<f32> = (0..n * k_len).map(|i| i as f32 * 0.2).collect();
        let wt = pack_transposed(n, k_len, &w);
        let x: Vec<f32> = (0..rows * k_len).map(|i| i as f32 * 0.05).collect();
        let mut y = vec![1.0f32; rows * n];
        gemm_acc(rows, k_len, n, &x, &wt, &mut y, n, 0);
        for r in 0..rows {
            for u in 0..n {
                let mut want = 1.0f32;
                for k in 0..k_len {
                    want += x[r * k_len + k] * w[u * k_len + k];
                }
                assert!((y[r * n + u] - want).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn strided_output_leaves_gaps_untouched() {
        // y_stride=4, n=2: columns 2..4 of each row must keep their values.
        let (rows, k_len, n) = (2, 3, 2);
        let wt = pack_transposed(n, k_len, &[0.5; 6]);
        let bias = [0.0f32; 2];
        let x = [1.0f32; 6];
        let mut y = vec![9.0f32; rows * 4];
        gemm_bias(rows, k_len, n, &x, &wt, &bias, &mut y, 4, 0);
        assert_eq!(y[2], 9.0);
        assert_eq!(y[3], 9.0);
        assert_eq!(y[6], 9.0);
        assert_eq!(y[7], 9.0);
        assert!((y[0] - 1.5).abs() < 1e-6);
    }
}
