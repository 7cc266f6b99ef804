//! Batched convolution and locally-connected kernels.
//!
//! `Conv1d` is computed *directly* (no im2col materialization) with one
//! register-tiled microkernel, [`conv_tile`]. Every tap of a layer —
//! `in_channels × kernel` of them — is one entry of a flat offset table
//! compiled with the plan ([`tap_offset`]): the start of the contiguous
//! run that tap reads across output positions. Stride-1 taps point into
//! the raw sample; strided convs first deinterleave each input channel
//! by residue mod `stride`, which turns every tap's walk across output
//! positions into a run of one residue row. Taps are ordered in
//! *residue sweep order* (`ic`, then `dk % stride`, then `dk / stride`),
//! and the plan packs each block of `M` filters' weights as `[tap][M]`
//! in that same order, so a [`PANEL`]-wide tile of output positions is
//! one flat loop over the table: two input loads, `M` broadcasts from
//! one sequential weight stream, and `2·M` FMAs per tap. The accumulator
//! tile is a plain local (never borrowed across a call boundary, so it
//! stays in registers), and each output element is computed in registers
//! and stored exactly once into the channels-first `[filters][out_len]`
//! destination. A ragged final tile *overlaps* back onto
//! `out_len - PANEL` — stores are overwrites, so overlap is free and the
//! hot loop stays fixed-width. Layers narrower than a panel
//! (`out_len < PANEL`) are staged like strided ones, into a buffer with
//! [`PANEL`] values of zeroed slack, so the same tile reads whole panels
//! and stores only the live lanes. Channelwise softmax — whose groups
//! run *across* filters at each position — is finished with a strided
//! per-position pass.
//!
//! `LocallyConnected1d` has unshared weights per output position, so it
//! runs one small GEMM per position over all batch rows instead
//! (gathering the same window from every sample), writing into a
//! position-major block via the strided-output GEMM and transposing
//! back.

use super::{act, gemm};
use crate::Activation;

/// Output-position tile width of the conv microkernel (two 256-bit
/// lanes).
pub(crate) const PANEL: usize = 16;

/// Height of the filter block starting at filter `f`: whole 5-row
/// blocks when they divide `filters` (the Table-1 layers' 25 and 15),
/// otherwise 4-row blocks with a {2, 1} remainder. At `M = 5` the tile
/// holds ten 256-bit accumulators and spends 2 input loads and 5
/// broadcasts per 10 FMAs. The plan packs weights and [`conv1d`] walks
/// blocks with this one function, so the two always agree.
pub(crate) fn block_rows(filters: usize, f: usize) -> usize {
    let left = filters.saturating_sub(f);
    if filters.is_multiple_of(5) {
        5
    } else if left >= 4 {
        4
    } else if left >= 2 {
        2
    } else {
        1
    }
}

/// Whether [`conv1d`] stages each sample into `col` before tiling:
/// strided layers deinterleave there, and layers narrower than a tile
/// need the zeroed slack so whole-panel reads stay in bounds.
pub(crate) fn staged(stride: usize, out_len: usize) -> bool {
    stride > 1 || out_len < PANEL
}

/// Length of one sample's residue rows (`in_len / stride`, rounded up).
pub(crate) fn residue_len(in_len: usize, stride: usize) -> usize {
    in_len.div_ceil(stride.max(1))
}

/// `col` space one staged sample takes: `in_channels × stride` residue
/// rows plus [`PANEL`] values of zeroed slack.
pub(crate) fn stage_len(in_channels: usize, in_len: usize, stride: usize) -> usize {
    in_channels * stride * residue_len(in_len, stride) + PANEL
}

/// `col` space [`conv1d`] needs per sample: the staged sample, then a
/// narrow layer's `[filters][PANEL]` output panel.
pub(crate) fn col_len(
    in_channels: usize,
    in_len: usize,
    filters: usize,
    stride: usize,
    out_len: usize,
) -> usize {
    let stage = if staged(stride, out_len) {
        stage_len(in_channels, in_len, stride)
    } else {
        0
    };
    let panel = if out_len < PANEL { filters * PANEL } else { 0 };
    stage + panel
}

/// Offset of tap `(ic, dk)`'s run: residue row `dk % stride` of channel
/// `ic`, element `dk / stride`. At stride 1 the residue row *is* the
/// channel, so the same offset indexes the raw sample.
pub(crate) fn tap_offset(in_len: usize, stride: usize, ic: usize, dk: usize) -> usize {
    let stride = stride.max(1);
    (ic * stride + dk % stride) * residue_len(in_len, stride) + dk / stride
}

/// Computes one `M`-filter × [`PANEL`]-position output tile at `j0`:
/// `acc = bias`, then one `mul_add` per tap, in table order. `hay` is the
/// sample or its staged copy, `taps` the layer's offset table, `w` the
/// block's `[tap][M]` packed weights and `y` the output from the block's
/// first filter row on, rows `pitch` apart. `M` is a compile-time block
/// height, so the `M × PANEL` accumulator lives in registers for the
/// whole sweep; the tile always stores whole panels, because a
/// variable-width store would need the accumulator's address and keep it
/// in memory.
#[inline(always)]
fn conv_tile<const M: usize>(
    hay: &[f32],
    taps: &[u32],
    j0: usize,
    w: &[f32],
    bias: &[f32],
    y: &mut [f32],
    pitch: usize,
) {
    let (Some(hay), Some(bias)) = (hay.get(j0..), bias.first_chunk::<M>()) else {
        return;
    };
    let mut acc = [[0.0f32; PANEL]; M];
    for (am, &b) in acc.iter_mut().zip(bias) {
        *am = [b; PANEL];
    }
    let (wk, _) = w.as_chunks::<M>();
    for (&off, wk) in taps.iter().zip(wk) {
        let off = off as usize;
        let Some(pv) = hay
            .get(off..off + PANEL)
            .and_then(|s| <&[f32; PANEL]>::try_from(s).ok())
        else {
            return;
        };
        // A local copy of the window: borrowing it in place let LLVM
        // scalarize the 5-row tile.
        let pv: [f32; PANEL] = *pv;
        for (am, &xv) in acc.iter_mut().zip(wk) {
            for (a, &p) in am.iter_mut().zip(&pv) {
                *a = xv.mul_add(p, *a);
            }
        }
    }
    for (m, am) in acc.iter().enumerate() {
        let Some(out) = y
            .get_mut(m * pitch + j0..)
            .and_then(|s| s.get_mut(..PANEL))
            .and_then(|s| <&mut [f32; PANEL]>::try_from(s).ok())
        else {
            return;
        };
        *out = *am;
    }
}

/// Runs every filter block's tiles across one sample's `out_len`
/// positions into `y` (filter rows `pitch` apart). A ragged final tile
/// overlaps back onto `out_len - PANEL`; a narrow layer is one tile.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sweep(
    hay: &[f32],
    taps: &[u32],
    w: &[f32],
    bias: &[f32],
    filters: usize,
    out_len: usize,
    y: &mut [f32],
    pitch: usize,
) {
    let k_len = taps.len();
    // Block-outer: one block's packed weights stay cache-resident while
    // its tiles sweep the sample.
    let mut f = 0usize;
    while f < filters {
        let m = block_rows(filters, f);
        let (Some(wb), Some(bb), Some(yb)) = (
            w.get(f * k_len..).and_then(|s| s.get(..m * k_len)),
            bias.get(f..),
            y.get_mut(f * pitch..),
        ) else {
            return;
        };
        let mut j0 = 0usize;
        loop {
            match m {
                5 => conv_tile::<5>(hay, taps, j0, wb, bb, yb, pitch),
                4 => conv_tile::<4>(hay, taps, j0, wb, bb, yb, pitch),
                2 => conv_tile::<2>(hay, taps, j0, wb, bb, yb, pitch),
                _ => conv_tile::<1>(hay, taps, j0, wb, bb, yb, pitch),
            }
            if j0 + PANEL >= out_len {
                break;
            }
            // Recomputed positions are overwritten with identical values.
            j0 = (j0 + PANEL).min(out_len - PANEL);
        }
        f += m;
    }
}

/// Stages one sample into `stage` ([`stage_len`] long). Residue row `rr`
/// of channel `ic` is the strided gather `src_c[rr], src_c[rr + stride],
/// …`, so tap `dk` of any window is the *contiguous* run starting at
/// `dk / stride` of residue row `dk % stride`. Past the channel's end,
/// and in the slack after the last row, the stage holds zeros.
fn stage_sample(sample: &[f32], in_len: usize, stride: usize, stage: &mut [f32]) {
    let dlen = residue_len(in_len, stride);
    let stride = stride.max(1);
    let Some((rows, slack)) = stage.split_at_mut_checked(stage.len().saturating_sub(PANEL)) else {
        return;
    };
    if dlen == 0 {
        return; // guards the chunks_exact_mut panic edge
    }
    for (i, drow) in rows.chunks_exact_mut(dlen).enumerate() {
        let (ic, rr) = (i / stride, i % stride);
        let src_c = sample.get(ic * in_len..).and_then(|s| s.get(..in_len));
        for (q, d) in drow.iter_mut().enumerate() {
            *d = src_c
                .and_then(|c| c.get(q * stride + rr))
                .copied()
                .unwrap_or(0.0);
        }
    }
    slack.fill(0.0);
}

/// Batched strided 1-D convolution, channels-first in/out. `taps` is the
/// layer's offset table in residue sweep order (see [`tap_offset`]) and
/// `w` the `[filters][in_channels * kernel]` weights packed per
/// [`block_rows`] block as `[tap][M]` in the same order.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn conv1d(
    batch: usize,
    in_channels: usize,
    in_len: usize,
    filters: usize,
    stride: usize,
    out_len: usize,
    activation: Activation,
    taps: &[u32],
    w: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    col: &mut [f32],
) {
    debug_assert!(w.len() == filters * taps.len() && bias.len() == filters);
    debug_assert!(stride >= 1);
    // A provably nonzero stride removes every division-by-zero panic
    // edge below (the layer constructors never build a zero stride).
    let stride = stride.max(1);
    let per_sample_out = filters * out_len;
    let sample_len = in_channels * in_len;
    let staged = staged(stride, out_len);
    let stage_len = if staged {
        stage_len(in_channels, in_len, stride)
    } else {
        0
    };
    for b in 0..batch {
        let (Some(sample), Some((stage, panel)), Some(y)) = (
            src.get(b * sample_len..).and_then(|s| s.get(..sample_len)),
            col.split_at_mut_checked(stage_len),
            dst.get_mut(b * per_sample_out..)
                .and_then(|s| s.get_mut(..per_sample_out)),
        ) else {
            return;
        };
        if staged {
            stage_sample(sample, in_len, stride, stage);
        }
        let hay: &[f32] = if staged { stage } else { sample };
        // A narrow layer's tiles go to a `[filters][PANEL]` buffer, and
        // then its live lanes to the output rows. (One `sweep` call site
        // keeps one copy of each tile for LLVM to vectorize.)
        let narrow = out_len < PANEL;
        let Some(panel) = panel.get_mut(..if narrow { filters * PANEL } else { 0 }) else {
            return;
        };
        let (out, pitch) = if narrow {
            (&mut *panel, PANEL)
        } else {
            (&mut *y, out_len)
        };
        sweep(hay, taps, w, bias, filters, out_len, out, pitch);
        if narrow {
            for (f, row) in panel.chunks_exact(PANEL).enumerate() {
                let Some(out) = y.get_mut(f * out_len..).and_then(|s| s.get_mut(..out_len)) else {
                    return;
                };
                for (o, &v) in out.iter_mut().zip(row) {
                    *o = v;
                }
            }
        }
    }
    if activation == Activation::Softmax {
        let Some(tmp) = col.get_mut(..filters) else {
            return;
        };
        softmax_channelwise(batch, filters, out_len, dst, tmp);
    } else {
        let Some(live) = dst.get_mut(..batch * per_sample_out) else {
            return;
        };
        act::apply_fast(activation, live, 1);
    }
}

/// Channelwise softmax on channels-first `[filters][out_len]` samples:
/// each output position's cross-filter vector is one softmax group,
/// gathered through `tmp` (length `filters`) because the group is
/// strided in this layout.
fn softmax_channelwise(
    batch: usize,
    filters: usize,
    out_len: usize,
    dst: &mut [f32],
    tmp: &mut [f32],
) {
    let per_sample = filters * out_len;
    for b in 0..batch {
        let d = &mut dst[b * per_sample..][..per_sample];
        for op in 0..out_len {
            for (f, t) in tmp.iter_mut().enumerate() {
                *t = d[f * out_len + op];
            }
            Activation::Softmax.apply(tmp, filters);
            for (f, &t) in tmp.iter().enumerate() {
                d[f * out_len + op] = t;
            }
        }
    }
}

/// Batched locally-connected 1-D layer (per-position unshared weights).
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn local1d(
    batch: usize,
    in_channels: usize,
    in_len: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    out_len: usize,
    activation: Activation,
    wt: &[f32],
    bias: &[f32],
    src: &[f32],
    dst: &mut [f32],
    col: &mut [f32],
    aux: &mut [f32],
) {
    let k_len = in_channels * kernel;
    let posmajor_len = out_len * filters;
    for op in 0..out_len {
        let start = op * stride;
        for b in 0..batch {
            let sample_len = in_channels * in_len;
            let Some(sample) = src.get(b * sample_len..).and_then(|s| s.get(..sample_len))
            else {
                return;
            };
            let Some(row) = col.get_mut(b * k_len..).and_then(|s| s.get_mut(..k_len)) else {
                return;
            };
            for ic in 0..in_channels {
                let Some(window) = sample
                    .get(ic * in_len + start..)
                    .and_then(|s| s.get(..kernel))
                else {
                    return;
                };
                let Some(dest) = row.get_mut(ic * kernel..).and_then(|s| s.get_mut(..kernel))
                else {
                    return;
                };
                for (d, &s) in dest.iter_mut().zip(window) {
                    *d = s;
                }
            }
        }
        let Some(wt_op) = wt
            .get(op * k_len * filters..)
            .and_then(|s| s.get(..k_len * filters))
        else {
            return;
        };
        let Some(bias_op) = bias.get(op * filters..).and_then(|s| s.get(..filters)) else {
            return;
        };
        let Some(packed) = col.get(..batch * k_len) else {
            return;
        };
        gemm::gemm_bias(
            batch,
            k_len,
            filters,
            packed,
            wt_op,
            bias_op,
            aux,
            posmajor_len,
            op * filters,
        );
    }
    finish_channelwise(batch, filters, out_len, activation, aux, dst);
}

/// Applies the conv-style activation to a position-major
/// `[batch][out_pos][filters]` block (softmax groups are exactly the
/// per-position channel vectors) and transposes each sample back to the
/// channels-first `[filters][out_len]` layout of `dst`.
fn finish_channelwise(
    batch: usize,
    filters: usize,
    out_len: usize,
    activation: Activation,
    posmajor: &mut [f32],
    dst: &mut [f32],
) {
    if filters == 0 || out_len == 0 {
        return; // guards the chunks_exact nonzero-assert panic edges
    }
    // checked_mul lets LLVM prove the chunk size nonzero (a plain `*`
    // may wrap to 0 as far as the optimizer knows), which eliminates
    // the chunks_exact nonzero-assert panic edge.
    let Some(per_sample) = out_len.checked_mul(filters) else {
        return;
    };
    if per_sample == 0 {
        return;
    }
    let Some(live) = posmajor.get_mut(..batch * per_sample) else {
        return;
    };
    if activation == Activation::Softmax {
        activation.apply(live, filters);
    } else {
        act::apply_fast(activation, live, 1);
    }
    for (s, d) in live
        .chunks_exact(per_sample)
        .zip(dst.chunks_exact_mut(per_sample))
    {
        for (op, row) in s.chunks_exact(filters).enumerate() {
            // Transpose `[out_pos][filters]` back to `[filters][out_len]`
            // with a guarded strided store — no indexing panic edges.
            for (f, &v) in row.iter().enumerate() {
                if let Some(o) = d.get_mut(f * out_len + op) {
                    *o = v;
                }
            }
        }
    }
}
