//! Peak profiles used to render line spectra into continuous spectra.

use serde::{Deserialize, Serialize};

use crate::{SpectrumError, UniformAxis};

/// Natural log of 2, used by Gaussian FWHM parameterization.
const LN2: f64 = std::f64::consts::LN_2;

/// A normalized (unit-area) peak profile parameterized by its full width at
/// half maximum (FWHM).
///
/// * [`PeakShape::gaussian`] — instrumental broadening in the MS simulator
///   ("deformation of the peaks to a curve", paper §III.A.1);
/// * [`PeakShape::lorentzian`] — natural NMR line shape;
/// * [`PeakShape::lorentz_gauss`] — the Lorentz–Gauss (pseudo-Voigt) mix the
///   paper's Indirect Hard Modelling uses for NMR pure components
///   (§III.B.1: "a series of Lorentz-Gauss functions").
///
/// All profiles integrate to 1 over the real line, so a stick of intensity
/// `I` rendered with any shape conserves area `I`.
///
/// # Example
///
/// ```
/// use spectrum::PeakShape;
///
/// # fn main() -> Result<(), spectrum::SpectrumError> {
/// let shape = PeakShape::lorentz_gauss(0.02, 0.5)?;
/// let center = shape.evaluate(0.0);
/// let half = shape.evaluate(0.01); // at half width from center
/// assert!((half / center - 0.5).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PeakShape {
    /// Gaussian profile with the given FWHM.
    Gaussian {
        /// Full width at half maximum.
        fwhm: f64,
    },
    /// Lorentzian (Cauchy) profile with the given FWHM.
    Lorentzian {
        /// Full width at half maximum.
        fwhm: f64,
    },
    /// Linear mix `eta * Lorentzian + (1 - eta) * Gaussian` of equal FWHM
    /// (the pseudo-Voigt approximation of a Voigt profile).
    LorentzGauss {
        /// Full width at half maximum shared by both parts.
        fwhm: f64,
        /// Lorentzian fraction in `[0, 1]`.
        eta: f64,
    },
}

impl PeakShape {
    /// A Gaussian with the given FWHM.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidPeak`] if `fwhm` is not strictly
    /// positive and finite.
    pub fn gaussian(fwhm: f64) -> Result<Self, SpectrumError> {
        check_fwhm(fwhm)?;
        Ok(Self::Gaussian { fwhm })
    }

    /// A Lorentzian with the given FWHM.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidPeak`] if `fwhm` is not strictly
    /// positive and finite.
    pub fn lorentzian(fwhm: f64) -> Result<Self, SpectrumError> {
        check_fwhm(fwhm)?;
        Ok(Self::Lorentzian { fwhm })
    }

    /// A Lorentz–Gauss mix with Lorentzian fraction `eta`.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidPeak`] if `fwhm` is not strictly
    /// positive and finite, or `eta` lies outside `[0, 1]`.
    pub fn lorentz_gauss(fwhm: f64, eta: f64) -> Result<Self, SpectrumError> {
        check_fwhm(fwhm)?;
        if !(0.0..=1.0).contains(&eta) || !eta.is_finite() {
            return Err(SpectrumError::InvalidPeak(format!(
                "lorentzian fraction eta must lie in [0, 1], got {eta}"
            )));
        }
        Ok(Self::LorentzGauss { fwhm, eta })
    }

    /// Full width at half maximum of the profile.
    pub fn fwhm(&self) -> f64 {
        match *self {
            Self::Gaussian { fwhm }
            | Self::Lorentzian { fwhm }
            | Self::LorentzGauss { fwhm, .. } => fwhm,
        }
    }

    /// The same shape with a different FWHM (used for broadening sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidPeak`] if `fwhm` is invalid.
    pub fn with_fwhm(&self, fwhm: f64) -> Result<Self, SpectrumError> {
        check_fwhm(fwhm)?;
        Ok(match *self {
            Self::Gaussian { .. } => Self::Gaussian { fwhm },
            Self::Lorentzian { .. } => Self::Lorentzian { fwhm },
            Self::LorentzGauss { eta, .. } => Self::LorentzGauss { fwhm, eta },
        })
    }

    /// Evaluates the unit-area profile at signed distance `dx` from the
    /// peak center.
    pub fn evaluate(&self, dx: f64) -> f64 {
        match *self {
            Self::Gaussian { fwhm } => gaussian_pdf(dx, fwhm),
            Self::Lorentzian { fwhm } => lorentzian_pdf(dx, fwhm),
            Self::LorentzGauss { fwhm, eta } => {
                eta * lorentzian_pdf(dx, fwhm) + (1.0 - eta) * gaussian_pdf(dx, fwhm)
            }
        }
    }

    /// Adds the profile, scaled by `amplitude` and centred at `center`, to
    /// every sample of `out` within `±support_radius()` of `center`: sample
    /// `i` gets `out[i] += amplitude * self.evaluate(axis.value_at(i) - center)`,
    /// bit for bit.
    ///
    /// A Lorentz–Gauss peak is swept in three segments. More than 40 σ
    /// from the center the Gaussian term underflows to exactly zero, so
    /// `evaluate` reduces to `eta * lorentzian` there: the two tails skip
    /// the `exp` call, and only the core evaluates both terms.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != axis.len()`.
    pub fn accumulate(&self, axis: &UniformAxis, center: f64, amplitude: f64, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            axis.len(),
            "accumulate target must match the axis"
        );
        let support = self.support_radius();
        let lo = axis.position_of(center - support).floor().max(0.0) as usize;
        let hi = (axis.position_of(center + support).ceil() as isize)
            .clamp(0, axis.len() as isize - 1) as usize;
        if lo > hi {
            return;
        }
        let (start, step) = (axis.start(), axis.step());
        let (core_lo, core_end, eta) = match *self {
            Self::LorentzGauss { fwhm, eta } => {
                let (core_lo, core_end) = gaussian_core(axis, center, fwhm, lo, hi);
                (core_lo, core_end, eta)
            }
            // No Gaussian tail to split off: the whole support is core.
            Self::Gaussian { .. } | Self::Lorentzian { .. } => (lo, hi + 1, 0.0),
        };
        let fwhm = self.fwhm();
        let tail = |x: f64| eta * lorentzian_pdf(x - center, fwhm);
        sweep(&mut out[lo..core_lo], lo, start, step, amplitude, tail);
        sweep(
            &mut out[core_lo..core_end],
            core_lo,
            start,
            step,
            amplitude,
            |x| self.evaluate(x - center),
        );
        sweep(
            &mut out[core_end..=hi],
            core_end,
            start,
            step,
            amplitude,
            tail,
        );
    }

    /// Peak height at the center (`evaluate(0.0)`).
    pub fn height(&self) -> f64 {
        self.evaluate(0.0)
    }

    /// Distance from the center beyond which the profile is numerically
    /// negligible; renderers restrict their loops to `±support_radius()`.
    ///
    /// Gaussians decay fast (±5 FWHM covers ~1e-30 of the mass); the
    /// Lorentzian tail is heavy, so its radius is wider (±60 FWHM keeps the
    /// truncated tail below ~1 % of the area).
    pub fn support_radius(&self) -> f64 {
        match *self {
            Self::Gaussian { fwhm } => 5.0 * fwhm,
            Self::Lorentzian { fwhm } => 60.0 * fwhm,
            Self::LorentzGauss { fwhm, eta } => {
                if eta == 0.0 {
                    5.0 * fwhm
                } else {
                    60.0 * fwhm
                }
            }
        }
    }
}

fn check_fwhm(fwhm: f64) -> Result<(), SpectrumError> {
    if !(fwhm.is_finite() && fwhm > 0.0) {
        return Err(SpectrumError::InvalidPeak(format!(
            "fwhm must be positive and finite, got {fwhm}"
        )));
    }
    Ok(())
}

/// `out[i] += amplitude * f(x)` for every sample, where `out[0]` is axis
/// index `first` and `x` is that index's value as `UniformAxis::value_at`
/// computes it (`start + step * index`).
fn sweep(
    out: &mut [f64],
    first: usize,
    start: f64,
    step: f64,
    amplitude: f64,
    f: impl Fn(f64) -> f64,
) {
    for (idx, slot) in (first..).zip(out) {
        *slot += amplitude * f(start + step * idx as f64);
    }
}

/// Standard deviation of the Gaussian with the given FWHM.
fn gaussian_sigma(fwhm: f64) -> f64 {
    fwhm / (2.0 * (2.0 * LN2).sqrt())
}

/// Unit-area Gaussian parameterized by FWHM.
fn gaussian_pdf(dx: f64, fwhm: f64) -> f64 {
    let sigma = gaussian_sigma(fwhm);
    let z = dx / sigma;
    (-0.5 * z * z).exp() / (sigma * (2.0 * std::f64::consts::PI).sqrt())
}

/// `|z|` beyond which [`gaussian_pdf`] returns exactly `0.0`. There
/// `-0.5 * z * z < -800`, and `exp` of anything below about −745.13
/// underflows past the smallest subnormal to zero. The exact cut-off is
/// `|z| ≈ 38.6`; the margin keeps the bound clear of libm rounding.
const GAUSSIAN_ZERO_Z: f64 = 40.0;

/// The index range `[core_lo, core_end)` of `lo..=hi` on which the
/// Gaussian term of a peak at `center` with the given FWHM is not known
/// to be zero, i.e. where the computed `z` has `|z| <= GAUSSIAN_ZERO_Z`.
///
/// `z` is monotone in the index, so the excluded points form one tail on
/// each side. The analytic positions give the start; the edges then
/// settle on the exact `z` that [`gaussian_pdf`] computes.
fn gaussian_core(
    axis: &UniformAxis,
    center: f64,
    fwhm: f64,
    lo: usize,
    hi: usize,
) -> (usize, usize) {
    let sigma = gaussian_sigma(fwhm);
    let z = |idx: usize| (axis.value_at(idx) - center) / sigma;
    let reach = GAUSSIAN_ZERO_Z * sigma;
    let guess = |x: f64| (axis.position_of(x).max(lo as f64) as usize).min(hi + 1);
    let mut core_lo = guess(center - reach);
    while core_lo > lo && z(core_lo - 1) >= -GAUSSIAN_ZERO_Z {
        core_lo -= 1;
    }
    while core_lo <= hi && z(core_lo) < -GAUSSIAN_ZERO_Z {
        core_lo += 1;
    }
    let mut core_end = guess(center + reach).max(core_lo);
    while core_end > core_lo && z(core_end - 1) > GAUSSIAN_ZERO_Z {
        core_end -= 1;
    }
    while core_end <= hi && z(core_end) <= GAUSSIAN_ZERO_Z {
        core_end += 1;
    }
    (core_lo, core_end)
}

/// Unit-area Lorentzian parameterized by FWHM.
fn lorentzian_pdf(dx: f64, fwhm: f64) -> f64 {
    let gamma = fwhm / 2.0;
    gamma / (std::f64::consts::PI * (dx * dx + gamma * gamma))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_area(shape: &PeakShape, half_range: f64, n: usize) -> f64 {
        let dx = 2.0 * half_range / n as f64;
        (0..n)
            .map(|i| {
                let x = -half_range + (i as f64 + 0.5) * dx;
                shape.evaluate(x) * dx
            })
            .sum()
    }

    #[test]
    fn gaussian_has_unit_area() {
        let shape = PeakShape::gaussian(1.0).unwrap();
        assert!((numeric_area(&shape, 10.0, 20_000) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lorentzian_has_unit_area() {
        let shape = PeakShape::lorentzian(1.0).unwrap();
        // Heavy tails: integrate far out, allow 1 % truncation.
        assert!((numeric_area(&shape, 500.0, 400_000) - 1.0).abs() < 2e-3);
    }

    #[test]
    fn mix_is_convex_combination() {
        let g = PeakShape::gaussian(0.3).unwrap();
        let l = PeakShape::lorentzian(0.3).unwrap();
        let m = PeakShape::lorentz_gauss(0.3, 0.25).unwrap();
        for dx in [0.0, 0.1, 0.5, 2.0] {
            let expect = 0.25 * l.evaluate(dx) + 0.75 * g.evaluate(dx);
            assert!((m.evaluate(dx) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn half_maximum_at_half_width() {
        for shape in [
            PeakShape::gaussian(0.8).unwrap(),
            PeakShape::lorentzian(0.8).unwrap(),
            PeakShape::lorentz_gauss(0.8, 0.5).unwrap(),
        ] {
            let ratio = shape.evaluate(0.4) / shape.evaluate(0.0);
            assert!(
                (ratio - 0.5).abs() < 1e-9,
                "{shape:?} half-height ratio {ratio}"
            );
        }
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert!(PeakShape::gaussian(0.0).is_err());
        assert!(PeakShape::gaussian(-1.0).is_err());
        assert!(PeakShape::gaussian(f64::NAN).is_err());
        assert!(PeakShape::lorentz_gauss(1.0, -0.1).is_err());
        assert!(PeakShape::lorentz_gauss(1.0, 1.1).is_err());
        assert!(PeakShape::lorentz_gauss(1.0, f64::NAN).is_err());
    }

    #[test]
    fn with_fwhm_preserves_family() {
        let shape = PeakShape::lorentz_gauss(0.1, 0.7).unwrap();
        let wider = shape.with_fwhm(0.2).unwrap();
        assert_eq!(wider, PeakShape::LorentzGauss { fwhm: 0.2, eta: 0.7 });
    }

    #[test]
    fn profile_is_symmetric_and_decreasing() {
        let shape = PeakShape::lorentz_gauss(1.0, 0.4).unwrap();
        let mut prev = shape.evaluate(0.0);
        for i in 1..50 {
            let dx = i as f64 * 0.1;
            let v = shape.evaluate(dx);
            assert!((v - shape.evaluate(-dx)).abs() < 1e-12);
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn gaussian_term_is_exactly_zero_beyond_zero_radius() {
        let mut z = GAUSSIAN_ZERO_Z;
        for _ in 0..4 {
            z = f64::from_bits(z.to_bits() + 1);
            assert_eq!((-0.5 * z * z).exp().to_bits(), 0, "z = {z}");
        }
        for z in [40.5, 41.0, 100.0, 1e8, 1e200, f64::MAX] {
            assert_eq!((-0.5 * z * z).exp().to_bits(), 0, "z = {z}");
            assert_eq!((-0.5 * -z * -z).exp().to_bits(), 0, "z = -{z}");
        }
        let fwhm = 0.05;
        let sigma = gaussian_sigma(fwhm);
        assert_eq!(gaussian_pdf(40.01 * sigma, fwhm).to_bits(), 0);
        assert!(
            gaussian_pdf(38.0 * sigma, fwhm) > 0.0,
            "margin below the cut-off"
        );
    }

    /// The per-point loop `accumulate` must reproduce bit for bit.
    fn textbook_accumulate(
        shape: &PeakShape,
        axis: &UniformAxis,
        center: f64,
        amplitude: f64,
        out: &mut [f64],
    ) {
        let support = shape.support_radius();
        let lo = axis.position_of(center - support).floor().max(0.0) as usize;
        let hi = (axis.position_of(center + support).ceil() as isize)
            .clamp(0, axis.len() as isize - 1) as usize;
        if lo > hi {
            return;
        }
        for (idx, slot) in out.iter_mut().enumerate().take(hi + 1).skip(lo) {
            *slot += amplitude * shape.evaluate(axis.value_at(idx) - center);
        }
    }

    #[test]
    fn accumulate_is_bit_identical_to_textbook_loop() {
        let axes = [
            UniformAxis::new(0.0, 12.0 / 1699.0, 1700).unwrap(),
            UniformAxis::new(-3.5, 0.013, 97).unwrap(),
            UniformAxis::new(100.0, 1e-4, 5000).unwrap(),
        ];
        let mut shapes = vec![
            PeakShape::gaussian(0.05).unwrap(),
            PeakShape::lorentzian(0.05).unwrap(),
        ];
        for fwhm in [1e-4, 0.003, 0.045, 0.31, 2.0] {
            // A tiny eta keeps far Gaussian tails visible next to eta·L, so a
            // too-small zero radius cannot hide in rounding.
            for eta in [0.0, 1e-300, 0.25, 0.6, 1.0] {
                shapes.push(PeakShape::lorentz_gauss(fwhm, eta).unwrap());
            }
        }
        for axis in &axes {
            let span = axis.stop() - axis.start();
            let centers = [-0.7, -0.01, 0.0, 0.003, 0.31, 0.5, 0.9999, 1.0, 1.2]
                .map(|f| axis.start() + f * span);
            for shape in &shapes {
                for center in centers {
                    for amplitude in [1.0, 0.37, -2.5] {
                        let base: Vec<f64> =
                            (0..axis.len()).map(|i| (i % 7) as f64 * 0.1).collect();
                        let mut want = base.clone();
                        textbook_accumulate(shape, axis, center, amplitude, &mut want);
                        let mut got = base;
                        shape.accumulate(axis, center, amplitude, &mut got);
                        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{shape:?} center {center} amplitude {amplitude} [{i}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn support_radius_bounds_tail_mass() {
        let g = PeakShape::gaussian(1.0).unwrap();
        assert!(g.evaluate(g.support_radius()) < 1e-12);
        let l = PeakShape::lorentzian(1.0).unwrap();
        // Tail mass beyond r is ~ fwhm/(pi*r) for a Lorentzian.
        assert!(1.0 / (std::f64::consts::PI * l.support_radius()) < 0.01);
    }
}
