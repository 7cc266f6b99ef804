//! Indirect Hard Modelling (IHM).
//!
//! Paper §III.B.1: "Based on a physical assumption (hard model), each
//! component can be described as a pure component, which is done with a
//! series of Lorentz-Gauss functions. With IHM, these pure components can
//! be found in the total spectrum of a mixture by fitting algorithms and
//! their intensities and thus concentrations can be determined, although
//! individual signals are allowed to shift or broaden."
//!
//! The fit is a separable least-squares problem: per-component shift and
//! broadening are optimized by Levenberg–Marquardt while, for every trial
//! of those nonlinear parameters, the concentrations are recovered by
//! non-negative linear least squares on the rendered component basis.

use chem::nmr::NmrComponent;
use spectrum::linalg::{nnls, Matrix};
use spectrum::{ContinuousSpectrum, UniformAxis};

use crate::lm::{levenberg_marquardt, LmOptions};
use crate::ChemometricsError;

/// Configuration of the IHM fit.
#[derive(Debug, Clone, PartialEq)]
pub struct IhmConfig {
    /// Maximum per-component chemical-shift offset (ppm).
    pub max_shift: f64,
    /// Allowed line-broadening factor range.
    pub broaden_bounds: (f64, f64),
    /// Levenberg–Marquardt options for the nonlinear stage.
    pub lm: LmOptions,
}

impl Default for IhmConfig {
    fn default() -> Self {
        Self {
            max_shift: 0.06,
            broaden_bounds: (0.7, 1.6),
            lm: LmOptions {
                max_iterations: 25,
                jacobian_step: 1e-4,
                ..LmOptions::default()
            },
        }
    }
}

/// Result of one IHM analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct IhmFit {
    /// Recovered concentrations, one per component (model units).
    pub concentrations: Vec<f64>,
    /// Fitted per-component shifts (ppm).
    pub shifts: Vec<f64>,
    /// Fitted per-component broadening factors.
    pub broadenings: Vec<f64>,
    /// Root-mean-square residual of the final fit.
    pub residual_rms: f64,
    /// Levenberg–Marquardt iterations used.
    pub iterations: usize,
}

/// An IHM analyzer bound to a component library and spectral axis.
///
/// See the [crate-level example](crate) for end-to-end usage.
#[derive(Debug, Clone)]
pub struct IhmAnalyzer {
    components: Vec<NmrComponent>,
    axis: UniformAxis,
    config: IhmConfig,
}

impl IhmAnalyzer {
    /// Creates an analyzer with the default configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChemometricsError::InvalidInput`] if `components` is
    /// empty.
    pub fn new(
        components: Vec<NmrComponent>,
        axis: UniformAxis,
    ) -> Result<Self, ChemometricsError> {
        Self::with_config(components, axis, IhmConfig::default())
    }

    /// Creates an analyzer with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ChemometricsError::InvalidInput`] if `components` is
    /// empty or the configuration is inconsistent.
    pub fn with_config(
        components: Vec<NmrComponent>,
        axis: UniformAxis,
        config: IhmConfig,
    ) -> Result<Self, ChemometricsError> {
        if components.is_empty() {
            return Err(ChemometricsError::InvalidInput(
                "need at least one component model".into(),
            ));
        }
        let (lo, hi) = config.broaden_bounds;
        // Finite first, so the comparisons below never meet a NaN.
        let finite = [config.max_shift, lo, hi].iter().all(|b| b.is_finite());
        if !finite || config.max_shift < 0.0 || lo <= 0.0 || lo > hi {
            return Err(ChemometricsError::InvalidInput(
                "invalid shift/broadening bounds".into(),
            ));
        }
        Ok(Self {
            components,
            axis,
            config,
        })
    }

    /// The component library (order defines the concentration layout).
    pub fn components(&self) -> &[NmrComponent] {
        &self.components
    }

    /// Component names in concentration order.
    pub fn component_names(&self) -> Vec<&str> {
        self.components.iter().map(|c| c.name()).collect()
    }

    /// Fits the hard model to `spectrum` and returns the recovered
    /// concentrations.
    ///
    /// # Errors
    ///
    /// Returns [`ChemometricsError::InvalidInput`] if the spectrum is not
    /// on the analyzer's axis, or propagates solver errors.
    pub fn fit(&self, spectrum: &ContinuousSpectrum) -> Result<IhmFit, ChemometricsError> {
        if spectrum.axis() != &self.axis {
            return Err(ChemometricsError::InvalidInput(
                "spectrum axis does not match analyzer axis".into(),
            ));
        }
        let data = spectrum.intensities().to_vec();
        let c = self.components.len();
        let initial: Vec<f64> = (0..c).flat_map(|_| [0.0, 1.0]).collect();
        let mut lower = Vec::with_capacity(2 * c);
        let mut upper = Vec::with_capacity(2 * c);
        for _ in 0..c {
            lower.push(-self.config.max_shift);
            lower.push(self.config.broaden_bounds.0);
            upper.push(self.config.max_shift);
            upper.push(self.config.broaden_bounds.1);
        }
        let options = LmOptions {
            lower_bounds: lower,
            upper_bounds: upper,
            ..self.config.lm.clone()
        };

        let mut basis = BasisMemo::new(self, &data);
        let result = levenberg_marquardt(
            |theta| match basis.solve(theta) {
                Ok((_, residuals)) => residuals,
                // An invalid trial point (e.g. numerically broken basis)
                // is penalized with huge residuals instead of aborting.
                Err(_) => vec![1e6; data.len()],
            },
            &initial,
            &options,
        )?;

        let (concentrations, residuals) = basis.solve(&result.parameters)?;
        let rms = (residuals.iter().map(|r| r * r).sum::<f64>() / residuals.len() as f64).sqrt();
        let shifts = (0..c).map(|j| result.parameters[2 * j]).collect();
        let broadenings = (0..c).map(|j| result.parameters[2 * j + 1]).collect();
        Ok(IhmFit {
            concentrations,
            shifts,
            broadenings,
            residual_rms: rms,
            iterations: result.iterations,
        })
    }
}

/// The unit-concentration basis of one fit, rendered column by column
/// and reused across its residual evaluations.
///
/// Each component keeps two column slots, keyed by the exact bits of the
/// `(shift, broaden)` they were rendered at. A Levenberg–Marquardt
/// Jacobian probe moves one parameter off the base point, so it renders
/// one column; a trial renders what it moved, and once accepted it is the
/// next base.
///
/// Every solve copies its columns into a basis matrix and runs `nnls` on
/// it, as rendering the whole basis afresh would, so the fit is
/// bit-identical to re-rendering everything.
struct BasisMemo<'a> {
    analyzer: &'a IhmAnalyzer,
    data: &'a [f64],
    /// Slot `2k + s` (`s` = 0 or 1) holds a column of component `k`.
    slots: Vec<Slot>,
    /// Per component, the slot `s` of the base point's column: misses
    /// render into the other slot, so the base's columns survive probes.
    base: Vec<usize>,
    /// Per component, the slot `s` the latest evaluation used.
    latest: Vec<usize>,
    /// Columns rendered so far.
    renders: usize,
}

struct Slot {
    key: Option<[u64; 2]>,
    column: Vec<f64>,
}

impl<'a> BasisMemo<'a> {
    fn new(analyzer: &'a IhmAnalyzer, data: &'a [f64]) -> Self {
        let c = analyzer.components.len();
        let slots = (0..2 * c)
            .map(|_| Slot {
                key: None,
                column: vec![0.0; analyzer.axis.len()],
            })
            .collect();
        Self {
            analyzer,
            data,
            slots,
            base: vec![0; c],
            latest: vec![0; c],
            renders: 0,
        }
    }

    /// Whether the columns `choice` selects are closer to `theta` than
    /// those `other` selects: more components matched whole, then more
    /// parameters matched, then a smaller summed parameter distance.
    fn closer(&self, choice: &[usize], other: &[usize], theta: &[f64]) -> bool {
        let score = |choice: &[usize]| {
            let (mut whole, mut params, mut distance) = (0, 0, 0.0);
            for (k, &s) in choice.iter().enumerate() {
                let Some(have) = self.slots[2 * k + s].key else {
                    distance = f64::INFINITY;
                    continue;
                };
                let mut same = 0;
                for (&bits, &value) in have.iter().zip(&theta[2 * k..2 * k + 2]) {
                    if bits == value.to_bits() {
                        same += 1;
                    } else {
                        distance += (f64::from_bits(bits) - value).abs();
                    }
                }
                whole += usize::from(same == 2);
                params += same;
            }
            (whole, params, distance)
        };
        let (a, b) = (score(choice), score(other));
        (a.0, a.1) > (b.0, b.1) || ((a.0, a.1) == (b.0, b.1) && a.2 < b.2)
    }

    /// Concentrations and residuals at `theta = [shift_0, broaden_0,
    /// shift_1, ...]`: renders the missing unit-concentration columns and
    /// solves the non-negative least-squares problem over them.
    fn solve(&mut self, theta: &[f64]) -> Result<(Vec<f64>, Vec<f64>), ChemometricsError> {
        let c = self.base.len();
        let keys: Vec<[u64; 2]> = theta
            .chunks_exact(2)
            .map(|p| [p[0].to_bits(), p[1].to_bits()])
            .collect();
        // After an accepted step the latest point is the new base. A probe
        // that lies as close to the latest point as to the base (the `-h`
        // probe after the `+h` one) keeps the base.
        if self.closer(&self.latest, &self.base, theta) {
            self.base.clone_from(&self.latest);
        }
        for (k, key) in keys.iter().enumerate() {
            let s = match (0..2).find(|&s| self.slots[2 * k + s].key == Some(*key)) {
                Some(s) => s,
                None => {
                    let s = 1 - self.base[k];
                    self.render(2 * k + s, theta[2 * k], theta[2 * k + 1], *key)?;
                    s
                }
            };
            self.latest[k] = s;
        }

        let mut basis = Matrix::zeros(self.data.len(), c);
        for (j, &s) in self.latest.iter().enumerate() {
            for (i, &v) in self.slots[2 * j + s].column.iter().enumerate() {
                basis.set(i, j, v);
            }
        }
        let conc = nnls(&basis, self.data, 8)?;
        let model = basis.matvec(&conc);
        let residuals = model.iter().zip(self.data).map(|(m, d)| m - d).collect();
        Ok((conc, residuals))
    }

    /// Renders component `id / 2` at unit concentration into slot `id`.
    fn render(
        &mut self,
        id: usize,
        shift: f64,
        broaden: f64,
        key: [u64; 2],
    ) -> Result<(), ChemometricsError> {
        let slot = &mut self.slots[id];
        slot.key = None;
        self.analyzer.components[id / 2].render_into(
            &self.analyzer.axis,
            1.0,
            shift,
            broaden,
            &mut slot.column,
        )?;
        slot.key = Some(key);
        self.renders += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chem::nmr::lithiation_components;

    fn axis() -> UniformAxis {
        UniformAxis::new(0.0, 12.0 / 1699.0, 1700).unwrap()
    }

    fn mixture(
        concs: &[f64],
        shifts: &[f64],
        broadens: &[f64],
    ) -> ContinuousSpectrum {
        let comps = lithiation_components();
        let ax = axis();
        let mut out = ContinuousSpectrum::zeros(ax);
        for (i, comp) in comps.iter().enumerate() {
            let rendered = comp.render(&ax, concs[i], shifts[i], broadens[i]).unwrap();
            out.add_assign(&rendered).unwrap();
        }
        out
    }

    #[test]
    fn recovers_clean_concentrations() {
        let truth = [0.35, 0.3, 0.25, 0.1];
        let spec = mixture(&truth, &[0.0; 4], &[1.0; 4]);
        let analyzer = IhmAnalyzer::new(lithiation_components(), axis()).unwrap();
        let fit = analyzer.fit(&spec).unwrap();
        for (found, expect) in fit.concentrations.iter().zip(&truth) {
            assert!(
                (found - expect).abs() < 0.01,
                "found {found}, expect {expect}"
            );
        }
        assert!(fit.residual_rms < 1e-3);
    }

    #[test]
    fn tolerates_peak_shifts() {
        let truth = [0.2, 0.4, 0.3, 0.1];
        let shifts = [0.03, -0.02, 0.04, -0.03];
        let spec = mixture(&truth, &shifts, &[1.0; 4]);
        let analyzer = IhmAnalyzer::new(lithiation_components(), axis()).unwrap();
        let fit = analyzer.fit(&spec).unwrap();
        for (found, expect) in fit.concentrations.iter().zip(&truth) {
            assert!(
                (found - expect).abs() < 0.03,
                "found {found}, expect {expect}"
            );
        }
        // Fitted shifts should move in the right direction.
        for (fitted, actual) in fit.shifts.iter().zip(&shifts) {
            assert!((fitted - actual).abs() < 0.03, "shift {fitted} vs {actual}");
        }
    }

    #[test]
    fn tolerates_broadening() {
        let truth = [0.25, 0.25, 0.4, 0.1];
        let broadens = [1.2, 0.9, 1.3, 1.1];
        let spec = mixture(&truth, &[0.0; 4], &broadens);
        let analyzer = IhmAnalyzer::new(lithiation_components(), axis()).unwrap();
        let fit = analyzer.fit(&spec).unwrap();
        for (found, expect) in fit.concentrations.iter().zip(&truth) {
            assert!(
                (found - expect).abs() < 0.04,
                "found {found}, expect {expect}"
            );
        }
    }

    #[test]
    fn zero_component_stays_near_zero() {
        let truth = [0.5, 0.5, 0.0, 0.0];
        let spec = mixture(&truth, &[0.0; 4], &[1.0; 4]);
        let analyzer = IhmAnalyzer::new(lithiation_components(), axis()).unwrap();
        let fit = analyzer.fit(&spec).unwrap();
        assert!(fit.concentrations[2] < 0.02, "{:?}", fit.concentrations);
        assert!(fit.concentrations[3] < 0.02);
        assert!(fit.concentrations.iter().all(|&c| c >= 0.0));
    }

    /// Drives the memo through the evaluation pattern of a
    /// Levenberg–Marquardt fit and checks how many columns each step
    /// renders, and that every answer equals a cold memo's bit for bit.
    #[test]
    fn jacobian_probe_renders_one_column() {
        let analyzer = IhmAnalyzer::new(lithiation_components(), axis()).unwrap();
        let spec = mixture(
            &[0.3, 0.3, 0.0, 0.2],
            &[0.01, -0.02, 0.0, 0.03],
            &[1.1, 0.9, 1.0, 1.2],
        );
        let data = spec.intensities().to_vec();
        let mut memo = BasisMemo::new(&analyzer, &data);
        let mut evaluate = |theta: &[f64], renders: usize| {
            let before = memo.renders;
            let got = memo.solve(theta).unwrap();
            assert_eq!(memo.renders - before, renders, "renders at {theta:?}");
            let want = BasisMemo::new(&analyzer, &data).solve(theta).unwrap();
            for (g, w) in got.0.iter().chain(&got.1).zip(want.0.iter().chain(&want.1)) {
                assert_eq!(g.to_bits(), w.to_bits(), "memo vs cold at {theta:?}");
            }
        };
        let probe_all = |center: &[f64], evaluate: &mut dyn FnMut(&[f64], usize)| {
            for j in 0..center.len() {
                let h = 1e-4 * (1.0 + center[j].abs());
                for sign in [1.0, -1.0] {
                    let mut probe = center.to_vec();
                    probe[j] += sign * h;
                    evaluate(&probe, 1);
                }
            }
        };
        let mut center = vec![0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0];
        evaluate(&center, 4);
        probe_all(&center, &mut evaluate);
        // A rejected trial moves everything and leaves the base in place.
        let rejected: Vec<f64> = center.iter().map(|p| p + 0.004).collect();
        evaluate(&rejected, 4);
        // Accepted trials: one parameter, one component, then all but the
        // two components a zero concentration leaves untouched.
        let mut moves = vec![vec![0.003, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]];
        moves.push(vec![0.0, 0.0, -0.01, 0.05, 0.0, 0.0, 0.0, 0.0]);
        moves.push(vec![0.002, -0.04, 0.001, 0.02, 0.0, 0.0, 0.0, 0.0]);
        for step in moves {
            let changed = step
                .chunks(2)
                .filter(|p| p.iter().any(|d| *d != 0.0))
                .count();
            center = center.iter().zip(&step).map(|(p, d)| p + d).collect();
            evaluate(&center, changed);
            probe_all(&center, &mut evaluate);
        }
        // The final solve at the accepted point renders nothing.
        evaluate(&center, 0);
    }

    #[test]
    fn rejects_wrong_axis() {
        let analyzer = IhmAnalyzer::new(lithiation_components(), axis()).unwrap();
        let other_axis = UniformAxis::new(0.0, 0.01, 100).unwrap();
        let spec = ContinuousSpectrum::zeros(other_axis);
        assert!(analyzer.fit(&spec).is_err());
    }

    #[test]
    fn rejects_empty_components_and_bad_config() {
        assert!(IhmAnalyzer::new(vec![], axis()).is_err());
        let bad = IhmConfig {
            broaden_bounds: (2.0, 1.0),
            ..IhmConfig::default()
        };
        assert!(IhmAnalyzer::with_config(lithiation_components(), axis(), bad).is_err());
    }

    #[test]
    fn rejects_non_finite_bounds() {
        let configs = [
            IhmConfig {
                broaden_bounds: (0.7, f64::NAN),
                ..IhmConfig::default()
            },
            IhmConfig {
                broaden_bounds: (f64::NAN, 1.6),
                ..IhmConfig::default()
            },
            IhmConfig {
                broaden_bounds: (0.7, f64::INFINITY),
                ..IhmConfig::default()
            },
            IhmConfig {
                max_shift: f64::INFINITY,
                ..IhmConfig::default()
            },
            IhmConfig {
                max_shift: f64::NAN,
                ..IhmConfig::default()
            },
        ];
        for config in configs {
            assert!(
                matches!(
                    IhmAnalyzer::with_config(lithiation_components(), axis(), config.clone()),
                    Err(ChemometricsError::InvalidInput(_))
                ),
                "{config:?} accepted"
            );
        }
    }

    #[test]
    fn nonsense_lm_options_are_rejected_not_fitted() {
        let spec = mixture(&[0.35, 0.3, 0.25, 0.1], &[0.0; 4], &[1.0; 4]);
        for lm in [
            LmOptions {
                jacobian_step: 0.0,
                ..IhmConfig::default().lm
            },
            LmOptions {
                initial_lambda: f64::NAN,
                ..IhmConfig::default().lm
            },
        ] {
            let config = IhmConfig {
                lm,
                ..IhmConfig::default()
            };
            let analyzer =
                IhmAnalyzer::with_config(lithiation_components(), axis(), config).unwrap();
            assert!(matches!(
                analyzer.fit(&spec),
                Err(ChemometricsError::InvalidInput(_))
            ));
        }
    }

    #[test]
    fn component_names_follow_order() {
        let analyzer = IhmAnalyzer::new(lithiation_components(), axis()).unwrap();
        assert_eq!(
            analyzer.component_names(),
            vec!["p-toluidine", "o-FNB", "Li-HMDS", "MNDPA"]
        );
    }
}
