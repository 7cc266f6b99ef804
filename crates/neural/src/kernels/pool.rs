//! Batched pooling kernels.
//!
//! Pooling has no weights and no reductions worth re-associating, so
//! these loops keep the pooling layers' arithmetic exactly (same
//! tie-last `>=` max scan, same left-to-right sum): pooled outputs are
//! bit-identical to `Network::predict`, only the surrounding layers
//! drift within tolerance.

/// Batched max pooling, channels-first. Tie-last `>=` scan from
/// `NEG_INFINITY` matches `MaxPool1d::forward` (NaN never satisfies
/// `>=`, so NaN windows surface whatever the scan last accepted).
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn maxpool(
    batch: usize,
    channels: usize,
    in_len: usize,
    pool: usize,
    stride: usize,
    out_len: usize,
    src: &[f32],
    dst: &mut [f32],
) {
    // lint: hot
    if out_len == 0 {
        return; // guards the chunks_exact_mut panic edge on degenerate shapes
    }
    for b in 0..batch {
        let slen = channels * in_len;
        let dlen = channels * out_len;
        let Some(s) = src.get(b * slen..).and_then(|x| x.get(..slen)) else {
            return;
        };
        let Some(d) = dst.get_mut(b * dlen..).and_then(|x| x.get_mut(..dlen)) else {
            return;
        };
        for (c, drow) in d.chunks_exact_mut(out_len).enumerate() {
            for (op, o) in drow.iter_mut().enumerate() {
                let Some(window) = s
                    .get(c * in_len + op * stride..)
                    .and_then(|w| w.get(..pool))
                else {
                    return;
                };
                let mut v = f32::NEG_INFINITY;
                for &x in window {
                    if x >= v {
                        v = x;
                    }
                }
                *o = v;
            }
        }
    }
}

/// Batched average pooling, channels-first; same left-to-right sum and
/// `* (1/pool)` scaling as `AvgPool1d::forward`.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn avgpool(
    batch: usize,
    channels: usize,
    in_len: usize,
    pool: usize,
    stride: usize,
    out_len: usize,
    src: &[f32],
    dst: &mut [f32],
) {
    // lint: hot
    if out_len == 0 {
        return; // guards the chunks_exact_mut panic edge on degenerate shapes
    }
    let inv = 1.0 / pool as f32;
    for b in 0..batch {
        let slen = channels * in_len;
        let dlen = channels * out_len;
        let Some(s) = src.get(b * slen..).and_then(|x| x.get(..slen)) else {
            return;
        };
        let Some(d) = dst.get_mut(b * dlen..).and_then(|x| x.get_mut(..dlen)) else {
            return;
        };
        for (c, drow) in d.chunks_exact_mut(out_len).enumerate() {
            for (op, o) in drow.iter_mut().enumerate() {
                let Some(window) = s
                    .get(c * in_len + op * stride..)
                    .and_then(|w| w.get(..pool))
                else {
                    return;
                };
                let sum: f32 = window.iter().sum();
                *o = sum * inv;
            }
        }
    }
}
