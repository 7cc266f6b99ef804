//! NMR pure-component peak tables (hard models).
//!
//! The paper's Indirect Hard Modelling describes "each component ... as a
//! pure component, which is done with a series of Lorentz-Gauss functions"
//! (§III.B.1). This module holds those parametric pure-component models
//! for the compounds of the lithiation example reaction:
//! p-toluidine + 1-fluoro-2-nitrobenzene (o-FNB), activated by Li-HMDS,
//! yielding 2-nitro-4'-methyldiphenylamine (MNDPA).
//!
//! Chemical-shift values are realistic ¹H positions for a medium-field
//! instrument; exact literature agreement is not load-bearing — the
//! toolchain only needs distinct, partially overlapping component
//! signatures whose areas scale linearly with concentration.

use serde::{Deserialize, Serialize};
use spectrum::{ContinuousSpectrum, PeakShape, SpectrumError, UniformAxis};

use crate::{ChemError, Compound};

/// One Lorentz–Gauss peak of a pure-component hard model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NmrPeak {
    /// Chemical shift of the peak center in ppm.
    pub center_ppm: f64,
    /// Integrated peak area per unit concentration (proportional to the
    /// number of contributing nuclei — NMR's calibration-free linearity).
    pub area: f64,
    /// Full width at half maximum in ppm.
    pub fwhm_ppm: f64,
    /// Lorentzian fraction of the Lorentz–Gauss mix, in `[0, 1]`.
    pub eta: f64,
}

impl NmrPeak {
    /// Creates a peak.
    ///
    /// # Errors
    ///
    /// Returns [`ChemError::InvalidFraction`] if any parameter is out of
    /// range (`area > 0`, `fwhm_ppm > 0`, `eta ∈ [0, 1]`, finite center).
    pub fn new(center_ppm: f64, area: f64, fwhm_ppm: f64, eta: f64) -> Result<Self, ChemError> {
        if !center_ppm.is_finite() {
            return Err(ChemError::InvalidFraction(format!(
                "peak center {center_ppm} not finite"
            )));
        }
        if !(area.is_finite() && area > 0.0) {
            return Err(ChemError::InvalidFraction(format!(
                "peak area {area} must be positive"
            )));
        }
        if !(fwhm_ppm.is_finite() && fwhm_ppm > 0.0) {
            return Err(ChemError::InvalidFraction(format!(
                "peak width {fwhm_ppm} must be positive"
            )));
        }
        if !(0.0..=1.0).contains(&eta) {
            return Err(ChemError::InvalidFraction(format!(
                "eta {eta} must lie in [0, 1]"
            )));
        }
        Ok(Self {
            center_ppm,
            area,
            fwhm_ppm,
            eta,
        })
    }
}

/// A pure-component hard model: a compound plus its series of
/// Lorentz–Gauss peaks.
///
/// # Example
///
/// ```
/// use chem::nmr::lithiation_components;
/// use spectrum::UniformAxis;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let components = lithiation_components();
/// let axis = UniformAxis::new(0.0, 12.0 / 1699.0, 1700)?;
/// let toluidine = &components[0];
/// let spectrum = toluidine.render(&axis, 1.0, 0.0, 1.0)?;
/// assert!(spectrum.max_intensity() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NmrComponent {
    compound: Compound,
    peaks: Vec<NmrPeak>,
}

impl NmrComponent {
    /// Creates a component model.
    ///
    /// # Errors
    ///
    /// Returns [`ChemError::Empty`] if `peaks` is empty.
    pub fn new(compound: Compound, peaks: Vec<NmrPeak>) -> Result<Self, ChemError> {
        if peaks.is_empty() {
            return Err(ChemError::Empty);
        }
        Ok(Self { compound, peaks })
    }

    /// The underlying compound.
    pub fn compound(&self) -> &Compound {
        &self.compound
    }

    /// Component name (shorthand for `compound().name()`).
    pub fn name(&self) -> &str {
        self.compound.name()
    }

    /// The peak table.
    pub fn peaks(&self) -> &[NmrPeak] {
        &self.peaks
    }

    /// Total area per unit concentration (sum over all peaks).
    pub fn total_area(&self) -> f64 {
        self.peaks.iter().map(|p| p.area).sum()
    }

    /// Renders the component at `concentration` onto `axis`, applying a
    /// global chemical-shift offset `shift_ppm` and a multiplicative line
    /// broadening `broaden` (1.0 = nominal width). These two perturbations
    /// are exactly the degrees of freedom IHM allows ("individual signals
    /// are allowed to shift or broaden").
    ///
    /// # Errors
    ///
    /// Same as [`NmrComponent::render_into`].
    pub fn render(
        &self,
        axis: &UniformAxis,
        concentration: f64,
        shift_ppm: f64,
        broaden: f64,
    ) -> Result<ContinuousSpectrum, SpectrumError> {
        let mut out = ContinuousSpectrum::zeros(*axis);
        self.render_into(
            axis,
            concentration,
            shift_ppm,
            broaden,
            out.intensities_mut(),
        )?;
        Ok(out)
    }

    /// [`NmrComponent::render`] into a caller-owned buffer: overwrites
    /// `out` (one sample per axis point) with the rendered component,
    /// bit for bit as `render` returns it.
    ///
    /// # Errors
    ///
    /// Returns [`SpectrumError::InvalidPeak`] if `broaden` is not strictly
    /// positive and finite, or `shift_ppm` or `concentration` is not
    /// finite, and [`SpectrumError::ShapeMismatch`] if `out` does not have
    /// one sample per axis point.
    pub fn render_into(
        &self,
        axis: &UniformAxis,
        concentration: f64,
        shift_ppm: f64,
        broaden: f64,
        out: &mut [f64],
    ) -> Result<(), SpectrumError> {
        if !(broaden.is_finite() && broaden > 0.0) {
            return Err(SpectrumError::InvalidPeak(format!(
                "broadening factor {broaden} must be positive"
            )));
        }
        if !(shift_ppm.is_finite() && concentration.is_finite()) {
            return Err(SpectrumError::InvalidPeak(format!(
                "shift {shift_ppm} and concentration {concentration} must be finite"
            )));
        }
        if out.len() != axis.len() {
            return Err(SpectrumError::ShapeMismatch {
                left: axis.len(),
                right: out.len(),
            });
        }
        out.fill(0.0);
        for peak in &self.peaks {
            let shape = PeakShape::lorentz_gauss(peak.fwhm_ppm * broaden, peak.eta)?;
            let center = peak.center_ppm + shift_ppm;
            let amplitude = concentration * peak.area;
            shape.accumulate(axis, center, amplitude, out);
        }
        Ok(())
    }
}

/// The four relevant components of the paper's lithiation reaction
/// (§III.B, Figure 8), in the canonical label order used by the NMR
/// pipeline: `[p-toluidine, o-FNB, Li-HMDS, MNDPA]`.
pub fn lithiation_components() -> Vec<NmrComponent> {
    let peak = |c, a, w, e| NmrPeak::new(c, a, w, e).expect("static peak data is valid");
    vec![
        NmrComponent::new(
            Compound::new("p-toluidine", "C7H9N", 107.16),
            vec![
                peak(6.52, 2.0, 0.045, 0.6), // aromatic H ortho to NH2
                peak(6.88, 2.0, 0.045, 0.6), // aromatic H ortho to CH3
                peak(3.42, 2.0, 0.070, 0.5), // NH2 (broad)
                peak(2.18, 3.0, 0.040, 0.6), // CH3
            ],
        )
        .expect("valid component"),
        NmrComponent::new(
            Compound::new("o-FNB", "C6H4FNO2", 141.10),
            vec![
                peak(8.05, 1.0, 0.050, 0.65), // H3 (ortho to NO2)
                peak(7.72, 1.0, 0.050, 0.65), // H5
                peak(7.38, 2.0, 0.055, 0.65), // H4 + H6 overlapped
            ],
        )
        .expect("valid component"),
        NmrComponent::new(
            Compound::new("Li-HMDS", "C6H18LiNSi2", 167.33),
            vec![
                peak(0.12, 18.0, 0.035, 0.55), // Si(CH3)3 × 2, tall singlet
            ],
        )
        .expect("valid component"),
        NmrComponent::new(
            Compound::new("MNDPA", "C13H12N2O2", 228.25),
            vec![
                peak(9.42, 1.0, 0.065, 0.55), // N-H
                peak(8.12, 1.0, 0.050, 0.65), // aromatic ortho to NO2
                peak(7.45, 1.0, 0.055, 0.65),
                peak(7.18, 4.0, 0.055, 0.65), // tolyl + overlapping aromatics
                peak(6.85, 1.0, 0.050, 0.65),
                peak(2.32, 3.0, 0.040, 0.6), // CH3
            ],
        )
        .expect("valid component"),
    ]
}

/// Canonical label order of [`lithiation_components`].
pub const LITHIATION_NAMES: [&str; 4] = ["p-toluidine", "o-FNB", "Li-HMDS", "MNDPA"];

#[cfg(test)]
mod tests {
    use super::*;

    fn axis() -> UniformAxis {
        UniformAxis::new(0.0, 12.0 / 1699.0, 1700).unwrap()
    }

    #[test]
    fn library_has_four_components_in_order() {
        let comps = lithiation_components();
        assert_eq!(comps.len(), 4);
        for (comp, name) in comps.iter().zip(LITHIATION_NAMES) {
            assert_eq!(comp.name(), name);
        }
    }

    #[test]
    fn peak_validation() {
        assert!(NmrPeak::new(f64::NAN, 1.0, 0.1, 0.5).is_err());
        assert!(NmrPeak::new(1.0, 0.0, 0.1, 0.5).is_err());
        assert!(NmrPeak::new(1.0, 1.0, 0.0, 0.5).is_err());
        assert!(NmrPeak::new(1.0, 1.0, 0.1, 1.5).is_err());
        assert!(NmrPeak::new(1.0, 1.0, 0.1, 0.5).is_ok());
    }

    #[test]
    fn component_needs_peaks() {
        let c = Compound::new("X", "X", 1.0);
        assert_eq!(NmrComponent::new(c, vec![]), Err(ChemError::Empty));
    }

    #[test]
    fn render_area_is_linear_in_concentration() {
        let comps = lithiation_components();
        let ax = axis();
        let one = comps[1].render(&ax, 1.0, 0.0, 1.0).unwrap();
        let two = comps[1].render(&ax, 2.0, 0.0, 1.0).unwrap();
        assert!((two.area() / one.area() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn render_area_matches_component_area() {
        // o-FNB: all peaks well inside the axis; area ≈ total_area.
        let comps = lithiation_components();
        let ax = axis();
        let spec = comps[1].render(&ax, 1.0, 0.0, 1.0).unwrap();
        let expect = comps[1].total_area();
        assert!(
            (spec.area() - expect).abs() / expect < 0.05,
            "area {} vs {expect}",
            spec.area()
        );
    }

    #[test]
    fn shift_moves_the_peaks() {
        let comps = lithiation_components();
        let ax = axis();
        let base = comps[2].render(&ax, 1.0, 0.0, 1.0).unwrap();
        let shifted = comps[2].render(&ax, 1.0, 0.5, 1.0).unwrap();
        let (_, base_pos) = base.argmax();
        let (_, shifted_pos) = shifted.argmax();
        assert!((shifted_pos - base_pos - 0.5).abs() < 0.02);
    }

    #[test]
    fn broadening_lowers_and_widens() {
        let comps = lithiation_components();
        let ax = axis();
        let narrow = comps[1].render(&ax, 1.0, 0.0, 1.0).unwrap();
        let broad = comps[1].render(&ax, 1.0, 0.0, 2.0).unwrap();
        assert!(broad.max_intensity() < narrow.max_intensity());
        // Area is conserved under broadening, up to Lorentzian tail
        // clipping at the axis edges (a few percent).
        assert!((broad.area() - narrow.area()).abs() / narrow.area() < 0.05);
    }

    #[test]
    fn invalid_broaden_rejected() {
        let comps = lithiation_components();
        assert!(comps[0].render(&axis(), 1.0, 0.0, 0.0).is_err());
        assert!(comps[0].render(&axis(), 1.0, 0.0, -1.0).is_err());
    }

    #[test]
    fn non_finite_shift_or_concentration_rejected() {
        let comps = lithiation_components();
        let ax = axis();
        for (conc, shift) in [
            (f64::NAN, 0.0),
            (f64::INFINITY, 0.0),
            (1.0, f64::NAN),
            (1.0, f64::NEG_INFINITY),
        ] {
            assert!(
                matches!(
                    comps[1].render(&ax, conc, shift, 1.0),
                    Err(SpectrumError::InvalidPeak(_))
                ),
                "conc {conc}, shift {shift}"
            );
        }
    }

    #[test]
    fn render_into_rejects_wrong_buffer_length() {
        let comps = lithiation_components();
        let mut short = vec![0.0; 10];
        assert!(matches!(
            comps[0].render_into(&axis(), 1.0, 0.0, 1.0, &mut short),
            Err(SpectrumError::ShapeMismatch { .. })
        ));
    }

    /// The per-point loop `render` used before the segmented kernel,
    /// frozen here so the kernel can be checked against it bit for bit.
    fn textbook_render(
        component: &NmrComponent,
        axis: &UniformAxis,
        concentration: f64,
        shift_ppm: f64,
        broaden: f64,
    ) -> ContinuousSpectrum {
        let mut out = ContinuousSpectrum::zeros(*axis);
        for peak in component.peaks() {
            let shape = PeakShape::lorentz_gauss(peak.fwhm_ppm * broaden, peak.eta).unwrap();
            let center = peak.center_ppm + shift_ppm;
            let amplitude = concentration * peak.area;
            let support = shape.support_radius();
            let lo = axis.position_of(center - support).floor().max(0.0) as usize;
            let hi = (axis.position_of(center + support).ceil() as isize)
                .clamp(0, axis.len() as isize - 1) as usize;
            if lo > hi {
                continue;
            }
            let samples = out.intensities_mut();
            for (idx, slot) in samples.iter_mut().enumerate().take(hi + 1).skip(lo) {
                let x = axis.value_at(idx);
                *slot += amplitude * shape.evaluate(x - center);
            }
        }
        out
    }

    #[test]
    fn render_is_bit_identical_to_textbook_loop() {
        let custom = |name: &str, peaks: &[(f64, f64, f64, f64)]| {
            let peaks = peaks
                .iter()
                .map(|&(c, a, w, e)| NmrPeak::new(c, a, w, e).unwrap())
                .collect();
            NmrComponent::new(Compound::new(name, "X", 1.0), peaks).unwrap()
        };
        let mut comps = lithiation_components();
        // Pure Gaussian (5·FWHM support, all core) and pure Lorentzian.
        comps.push(custom(
            "gauss",
            &[(1.3, 2.0, 0.05, 0.0), (7.7, 1.0, 0.2, 0.0)],
        ));
        comps.push(custom(
            "lorentz",
            &[(4.4, 1.0, 0.04, 1.0), (9.1, 3.0, 0.3, 1.0)],
        ));
        // Supports clipped at either axis edge, and peaks shifted past
        // them (past the top edge `lo > hi`; past the bottom only index 0
        // survives).
        comps.push(custom(
            "edges",
            &[
                (0.02, 1.0, 0.05, 0.6),
                (11.97, 2.0, 0.06, 0.4),
                (-2.0, 1.0, 0.01, 0.5),
                (14.0, 1.0, 0.01, 0.5),
                (0.0, 1.0, 0.002, 0.0),
                (12.0, 1.0, 0.002, 0.0),
            ],
        ));
        let ax = axis();
        let mut out = vec![0.0; ax.len()];
        let mut renders = 0;
        for comp in &comps {
            for shift in [-0.5, -0.06, -0.0137, 0.0, 0.021, 0.06, 0.3] {
                for broaden in [0.7, 0.93, 1.0, 1.37, 1.6] {
                    for conc in [0.0, 0.173, 1.0, 2.5] {
                        let want = textbook_render(comp, &ax, conc, shift, broaden);
                        // Stale contents must not leak through render_into.
                        out.fill(renders as f64);
                        comp.render_into(&ax, conc, shift, broaden, &mut out)
                            .unwrap();
                        let got = comp.render(&ax, conc, shift, broaden).unwrap();
                        for (i, (&w, (&a, &b))) in want
                            .intensities()
                            .iter()
                            .zip(out.iter().zip(got.intensities()))
                            .enumerate()
                        {
                            assert!(
                                w.to_bits() == a.to_bits() && w.to_bits() == b.to_bits(),
                                "{} shift {shift} broaden {broaden} conc {conc} [{i}]: \
                                 {a} / {b} vs textbook {w}",
                                comp.name()
                            );
                        }
                        renders += 1;
                    }
                }
            }
        }
        assert_eq!(renders, comps.len() * 7 * 5 * 4);
    }

    #[test]
    fn components_have_distinct_signatures() {
        // Pairwise correlation of rendered pure spectra must be well below 1.
        let comps = lithiation_components();
        let ax = axis();
        let rendered: Vec<Vec<f64>> = comps
            .iter()
            .map(|c| c.render(&ax, 1.0, 0.0, 1.0).unwrap().into_intensities())
            .collect();
        for i in 0..rendered.len() {
            for j in (i + 1)..rendered.len() {
                let r = spectrum::stats::pearson(&rendered[i], &rendered[j]).unwrap();
                assert!(r < 0.9, "components {i} and {j} correlate at {r}");
            }
        }
    }
}
