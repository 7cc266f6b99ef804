//! Vectorizable elementwise activations for the batched backend.
//!
//! [`Activation::apply`] evaluates `Selu`/`Sigmoid`/`Tanh` through libm
//! calls (`expf`, `tanhf`), which LLVM cannot vectorize — on the
//! paper's Table-1 network the Selu pass alone costs more than the conv
//! GEMMs it follows. The batched backend instead routes elementwise
//! activations through [`apply_fast`], whose transcendental core is
//! [`exp_fast`]: a branch-free Cody–Waite range reduction plus a
//! degree-5 polynomial (the classic Cephes `expf` scheme) built from
//! `clamp`/`round_ties_even`/`mul_add`/`from_bits` — all operations
//! LLVM autovectorizes, turning eight activations per 256-bit lane into
//! straight-line SIMD code.
//!
//! `exp_fast` is accurate to ~2 ulp relative over the full range, so
//! activation outputs differ from the reference by well under 1e-6 —
//! far inside the batched backend's 1e-4 tolerance gate (DESIGN.md
//! §15). Non-finite semantics match the reference: NaN propagates
//! through every path (`clamp`, the polynomial, and the final select
//! all preserve it), `Selu(+inf) = +inf`, and saturating inputs agree
//! with libm to within denormal-scale differences. `Softmax` — grouped,
//! numerically delicate, and a bit-exact part of the reference
//! contract for dense heads — is delegated to [`Activation::apply`]
//! unchanged.

use crate::activation::{Activation, SELU_ALPHA, SELU_SCALE};

/// Fast `expf`: Cody–Waite reduction (`x = k·ln2 + r`), Cephes
/// degree-5 polynomial on `r ∈ [-ln2/2, ln2/2]`, exponent rebuild via
/// bit assembly. Inputs are clamped to `[-87, 88]` (results below
/// `exp(-87)` underflow toward zero anyway; `exp(88)` is the last
/// comfortably finite f32) — NaN survives the clamp and every step
/// after it.
#[inline(always)]
fn exp_fast(x: f32) -> f32 {
    // 0.693359375 is exactly representable (a 9-bit mantissa), which is
    // the whole point of the high/low split — write it in full.
    #[allow(clippy::excessive_precision)]
    const C1: f32 = 0.693_359_375; // ln2 high part
    const C2: f32 = -2.121_944_4e-4; // ln2 low part (ln2 = C1 + C2)
    // 1.5 · 2²³: adding it rounds to nearest-even *into the mantissa*,
    // so `kb`'s low bits hold the integer k directly — no float→int
    // cast, whose saturating semantics scalarize under LLVM (one
    // cvttss2si plus two compares per lane).
    const MAGIC: f32 = 12_582_912.0;
    let x = x.clamp(-87.0, 88.0);
    let kb = x.mul_add(std::f32::consts::LOG2_E, MAGIC);
    let k = kb - MAGIC;
    let r = k.mul_add(-C1, x);
    let r = k.mul_add(-C2, r);
    let mut p = 1.987_569_2e-4f32;
    p = p.mul_add(r, 1.398_199_9e-3);
    p = p.mul_add(r, 8.333_452e-3);
    p = p.mul_add(r, 4.166_579_6e-2);
    p = p.mul_add(r, 1.666_666_5e-1);
    p = p.mul_add(r, 0.5);
    let poly = p.mul_add(r * r, r) + 1.0;
    // kb's bits are 0x4B40_0000 + k with k ∈ [-126, 127] after the
    // clamp, so `(k + 127) << 23` assembles a normal f32 exponent.
    // A NaN x survives: NaN bits make `scale` arbitrary, but the NaN
    // polynomial poisons the product regardless.
    let scale = f32::from_bits(kb.to_bits().wrapping_add(0xB4C0_007F) << 23);
    poly * scale
}

/// Applies `activation` in place like [`Activation::apply`], using the
/// vectorizable [`exp_fast`] for the transcendental elementwise
/// activations. `group` is only consulted for `Softmax`, which is
/// delegated to the exact reference implementation.
#[inline(never)] // codegen-audit anchor: keep a standalone symbol (lint.toml [codegen])
pub(crate) fn apply_fast(activation: Activation, values: &mut [f32], group: usize) {
    match activation {
        Activation::Linear => {}
        Activation::Relu => {
            for v in values.iter_mut() {
                if *v < 0.0 {
                    *v = 0.0;
                }
            }
        }
        Activation::Selu => {
            for v in values.iter_mut() {
                let x = *v;
                // Both arms evaluate so the loop compiles to a blend,
                // not a branch. NaN takes the `else` arm in the
                // reference too, so propagation matches.
                let neg = SELU_SCALE * SELU_ALPHA * (exp_fast(x) - 1.0);
                *v = if x > 0.0 { SELU_SCALE * x } else { neg };
            }
        }
        Activation::Sigmoid => {
            for v in values.iter_mut() {
                *v = 1.0 / (1.0 + exp_fast(-*v));
            }
        }
        Activation::Tanh => {
            for v in values.iter_mut() {
                // tanh(x) = (e^{2x} - 1) / (e^{2x} + 1); saturates to
                // ±1 exactly where libm does (|x| ≳ 9).
                let e = exp_fast(2.0 * *v);
                *v = (e - 1.0) / (e + 1.0);
            }
        }
        Activation::Softmax => Activation::Softmax.apply(values, group),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_fast_tracks_libm_within_relative_tolerance() {
        for i in 0..2000 {
            let x = -20.0 + i as f32 * 0.02; // [-20, 20)
            let want = x.exp();
            let got = exp_fast(x);
            let rel = ((got - want) / want).abs();
            assert!(rel < 1e-6, "x={x}: libm {want:e} fast {got:e} rel {rel:e}");
        }
    }

    #[test]
    fn exp_fast_edge_cases_match_libm_semantics() {
        assert!(exp_fast(f32::NAN).is_nan());
        assert_eq!(exp_fast(f32::INFINITY), exp_fast(88.0)); // clamped, finite, huge
        assert!(exp_fast(f32::INFINITY) > 1e38);
        assert!(exp_fast(f32::NEG_INFINITY) < 2e-38); // effectively zero
        assert_eq!(exp_fast(0.0), 1.0);
    }

    #[test]
    fn apply_fast_matches_reference_activation_within_tolerance() {
        for act in [
            Activation::Linear,
            Activation::Relu,
            Activation::Selu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let mut fast: Vec<f32> = (0..400).map(|i| (i as f32 - 200.0) * 0.05).collect();
            let mut exact = fast.clone();
            apply_fast(act, &mut fast, 1);
            act.apply(&mut exact, 1);
            for (i, (f, e)) in fast.iter().zip(&exact).enumerate() {
                assert!(
                    (f - e).abs() < 1e-6,
                    "{act:?} at index {i}: fast {f} exact {e}"
                );
            }
        }
    }

    #[test]
    fn apply_fast_softmax_is_bit_identical_to_reference() {
        let mut fast = vec![0.3f32, -1.2, 2.0, 0.0, 5.0, -5.0];
        let mut exact = fast.clone();
        apply_fast(Activation::Softmax, &mut fast, 3);
        Activation::Softmax.apply(&mut exact, 3);
        assert_eq!(fast, exact);
    }

    #[test]
    fn apply_fast_propagates_non_finite_like_reference() {
        for act in [Activation::Selu, Activation::Sigmoid, Activation::Tanh] {
            let mut fast = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            let mut exact = fast;
            apply_fast(act, &mut fast, 1);
            act.apply(&mut exact, 1);
            for (f, e) in fast.iter().zip(&exact) {
                if e.is_nan() {
                    assert!(f.is_nan(), "{act:?}: expected NaN, got {f}");
                } else if e.is_infinite() {
                    assert_eq!(f, e, "{act:?}: expected {e}, got {f}");
                } else {
                    assert!((f - e).abs() < 1e-6, "{act:?}: fast {f} exact {e}");
                }
            }
        }
    }
}
