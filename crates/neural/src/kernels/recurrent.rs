//! Batched LSTM kernel.
//!
//! Per timestep the gate pre-activations for the whole batch are built
//! in one strided GEMM (`z = b + W·x_t`, reading each sample's step-`t`
//! feature slice directly out of the batch block) plus one accumulate
//! GEMM (`z += U·h_prev`), then the elementwise gate math runs exactly
//! as in the `Lstm` layer (same sigmoid/tanh evaluations per element).
//! Hidden/cell state for every sample lives in the scratch arena's
//! `cell` buffer — no per-timestep allocation.

use super::gemm;

/// The gate sigmoid, written exactly as the `Lstm` layer evaluates it.
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Batched LSTM returning each sample's final hidden state.
#[allow(clippy::too_many_arguments)]
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn lstm(
    batch: usize,
    timesteps: usize,
    features: usize,
    units: usize,
    wt: &[f32],
    ut: &[f32],
    b: &[f32],
    src: &[f32],
    dst: &mut [f32],
    aux: &mut [f32],
    cell: &mut [f32],
) {
    let h = units;
    let d = features;
    if h == 0 {
        return; // guards the chunks_exact panic edge on degenerate shapes
    }
    // checked_mul lets LLVM prove the gate width nonzero (a plain `4*h`
    // may wrap to 0 as far as the optimizer knows), which eliminates
    // the chunks_exact nonzero-assert panic edge.
    let Some(four_h) = h.checked_mul(4) else {
        return;
    };
    let Some((h_prev, c_prev)) = cell
        .get_mut(..2 * batch * h)
        .and_then(|s| s.split_at_mut_checked(batch * h))
    else {
        return;
    };
    h_prev.fill(0.0);
    c_prev.fill(0.0);
    for t in 0..timesteps {
        let Some(z) = aux.get_mut(..batch * four_h) else {
            return;
        };
        let Some(xt) = src.get(t * d..) else { return };
        gemm::gemm_bias(batch, d, four_h, xt, timesteps * d, wt, b, z, four_h, 0);
        gemm::gemm_acc(batch, h, four_h, h_prev, h, ut, z, four_h, 0);
        for ((zr, hp), cp) in z
            .chunks_exact(four_h)
            .zip(h_prev.chunks_exact_mut(h))
            .zip(c_prev.chunks_exact_mut(h))
        {
            // Gate pre-activations are laid out `[i | f | g | o]`, each
            // `h` wide; splitting once keeps the per-unit loop a pure
            // zip with no indexing panic edges.
            let Some((zi, rest)) = zr.split_at_checked(h) else {
                return;
            };
            let Some((zf, rest)) = rest.split_at_checked(h) else {
                return;
            };
            let Some((zg, zo)) = rest.split_at_checked(h) else {
                return;
            };
            for ((((hp, cp), &zi), &zf), (&zg, &zo)) in hp
                .iter_mut()
                .zip(cp.iter_mut())
                .zip(zi)
                .zip(zf)
                .zip(zg.iter().zip(zo))
            {
                let i_g = sigmoid(zi);
                let f_g = sigmoid(zf);
                let g_g = zg.tanh();
                let o_g = sigmoid(zo);
                let c = f_g * *cp + i_g * g_g;
                *cp = c;
                *hp = o_g * c.tanh();
            }
        }
    }
    let Some(out) = dst.get_mut(..batch * h) else {
        return;
    };
    for (o, &v) in out.iter_mut().zip(h_prev.iter()) {
        *o = v;
    }
}
