//! Drift detection over the streaming model-fit distance.
//!
//! Input: one observation per window — the mean total-variation
//! distance between the window's measured spectra and the *believed*
//! instrument's clean render ([`spectral_fit`]).
//! Because the fit is computed on area-normalized spectra it is immune
//! to the prototype's large per-measurement gain fluctuation and reacts
//! only to *shape* drift: attenuation steepening, mass-calibration
//! walk, peak broadening — exactly the parameters re-characterization
//! can repair.
//!
//! Detection is a one-sided CUSUM on the deviation from a learned
//! baseline, with an EWMA published alongside for observability and
//! with two-sided hysteresis:
//!
//! * the first `learn_windows` observations establish the baseline
//!   (verdict [`Verdict::Learning`] — no alarms while calibrating);
//! * `S ← max(0, S + (x − baseline − slack))` accumulates only
//!   persistent excess distance; white noise around the baseline drains
//!   it;
//! * `S > threshold` raises [`Verdict::Suspected`]; only
//!   `confirm_ticks` *consecutive* over-threshold windows escalate to
//!   [`Verdict::Confirmed`] (a single bad window cannot trigger a
//!   recharacterization);
//! * a suspicion clears back to [`Verdict::Stable`] only after
//!   `clear_ticks` consecutive calm windows (no flapping at the
//!   threshold).
//!
//! Non-finite observations are rejected at the boundary: they are
//! counted, reported, and leave the detector state untouched.

use std::fmt;

use crate::MonitorError;

/// Tuning for [`DriftDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// Observations used to learn the baseline fit distance.
    pub learn_windows: usize,
    /// EWMA smoothing factor in `(0, 1]`.
    pub ewma_alpha: f64,
    /// CUSUM slack: deviation below `baseline + slack` drains the
    /// statistic. Set above the baseline's natural window-to-window
    /// scatter.
    pub cusum_slack: f64,
    /// CUSUM decision threshold.
    pub cusum_threshold: f64,
    /// Winsorization cap on the per-window CUSUM increment: one window,
    /// however extreme, contributes at most this much — a single bad
    /// window can neither trigger nor dominate the statistic.
    pub cusum_clip: f64,
    /// Consecutive over-threshold windows required to confirm drift.
    pub confirm_ticks: usize,
    /// Consecutive calm windows required to clear a suspicion.
    pub clear_ticks: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self {
            learn_windows: 6,
            ewma_alpha: 0.3,
            cusum_slack: 0.05,
            cusum_threshold: 0.12,
            cusum_clip: 0.06,
            confirm_ticks: 3,
            clear_ticks: 3,
        }
    }
}

/// The detector's verdict after an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Still learning the baseline; no alarms possible.
    Learning,
    /// Fit distance consistent with the baseline.
    Stable,
    /// The CUSUM is over threshold but drift is not yet confirmed (or a
    /// previous excursion has not yet cleared).
    Suspected,
    /// Drift confirmed; latched until [`DriftDetector::reset`].
    Confirmed,
}

/// EWMA + CUSUM drift detector with hysteresis. See the module docs.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    config: DetectorConfig,
    baseline_sum: f64,
    baseline: Option<f64>,
    ewma: Option<f64>,
    cusum: f64,
    over_streak: usize,
    calm_streak: usize,
    confirmed: bool,
    observations: u64,
    rejected: u64,
}

impl DriftDetector {
    /// A detector with the given tuning.
    ///
    /// # Errors
    ///
    /// [`MonitorError::Invariant`] if the tuning is degenerate
    /// (zero learning period, alpha outside `(0, 1]`, non-positive
    /// threshold, or non-finite parameters).
    pub fn new(config: DetectorConfig) -> Result<Self, MonitorError> {
        if config.learn_windows == 0 {
            return Err(MonitorError::Invariant(
                "detector needs a learning period".into(),
            ));
        }
        if !(config.ewma_alpha > 0.0 && config.ewma_alpha <= 1.0) {
            return Err(MonitorError::Invariant(format!(
                "ewma_alpha {} outside (0, 1]",
                config.ewma_alpha
            )));
        }
        if config.cusum_threshold.is_nan()
            || config.cusum_threshold <= 0.0
            || !config.cusum_slack.is_finite()
        {
            return Err(MonitorError::Invariant(
                "cusum threshold must be positive and slack finite".into(),
            ));
        }
        if config.cusum_clip.is_nan() || config.cusum_clip <= 0.0 {
            return Err(MonitorError::Invariant(
                "cusum clip must be positive".into(),
            ));
        }
        Ok(Self {
            config,
            baseline_sum: 0.0,
            baseline: None,
            ewma: None,
            cusum: 0.0,
            over_streak: 0,
            calm_streak: 0,
            confirmed: false,
            observations: 0,
            rejected: 0,
        })
    }

    /// Feeds one fit-distance observation and returns the verdict.
    /// Non-finite observations are rejected (counted, state untouched).
    pub fn observe(&mut self, distance: f64) -> Verdict {
        if !distance.is_finite() {
            self.rejected += 1;
            obs::counter_add("monitor.fit_rejected", 1);
            return self.verdict();
        }
        self.observations += 1;
        obs::gauge_set("monitor.fit_distance", distance);

        let Some(baseline) = self.baseline else {
            self.baseline_sum += distance;
            if self.observations >= self.config.learn_windows as u64 {
                self.baseline = Some(self.baseline_sum / self.observations as f64);
            }
            return Verdict::Learning;
        };

        let ewma = match self.ewma {
            Some(prev) => prev + self.config.ewma_alpha * (distance - prev),
            None => distance,
        };
        self.ewma = Some(ewma);
        let deviation = (distance - baseline - self.config.cusum_slack).min(self.config.cusum_clip);
        self.cusum = (self.cusum + deviation).max(0.0);
        obs::gauge_set("monitor.ewma", ewma);
        obs::gauge_set("monitor.cusum", self.cusum);

        if self.confirmed {
            return Verdict::Confirmed;
        }
        if self.cusum > self.config.cusum_threshold {
            self.over_streak += 1;
            self.calm_streak = 0;
            if self.over_streak >= self.config.confirm_ticks {
                self.confirmed = true;
                obs::counter_add("monitor.drift_confirmed", 1);
                return Verdict::Confirmed;
            }
            return Verdict::Suspected;
        }
        self.calm_streak += 1;
        if self.over_streak > 0 {
            if self.calm_streak >= self.config.clear_ticks {
                self.over_streak = 0;
                return Verdict::Stable;
            }
            return Verdict::Suspected;
        }
        Verdict::Stable
    }

    /// The verdict implied by the current state, without an observation.
    pub fn verdict(&self) -> Verdict {
        if self.baseline.is_none() {
            Verdict::Learning
        } else if self.confirmed {
            Verdict::Confirmed
        } else if self.over_streak > 0 {
            Verdict::Suspected
        } else {
            Verdict::Stable
        }
    }

    /// Forgets everything and relearns the baseline — called after a
    /// model swap, when the believed instrument (and therefore the
    /// baseline fit distance) has changed.
    pub fn reset(&mut self) {
        let rejected = self.rejected;
        let config = self.config.clone();
        *self = match Self::new(config) {
            Ok(fresh) => fresh,
            // Unreachable: the config was validated at construction.
            Err(_) => return,
        };
        self.rejected = rejected;
    }

    /// The learned baseline, once the learning period completes.
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// The current EWMA of the fit distance.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }

    /// The current CUSUM statistic.
    pub fn cusum(&self) -> f64 {
        self.cusum
    }

    /// Finite observations consumed.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Non-finite observations rejected at the boundary.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// Why a spectral fit could not be computed. Produced at the boundary so
/// downstream consumers (e.g. a drift detector averaging fit scores) never
/// see a NaN or a division by a zero-area window.
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// One of the spectra has no samples.
    Empty,
    /// Modelled and measured spectra have different lengths.
    LengthMismatch {
        /// Samples in the modelled spectrum.
        modelled: usize,
        /// Samples in the measured spectrum.
        measured: usize,
    },
    /// A spectrum contains a NaN or infinite intensity.
    NonFinite {
        /// Index of the first offending sample.
        index: usize,
    },
    /// A spectrum window has (numerically) zero total area, so it cannot
    /// be normalized — e.g. an all-zero window from a sensor blackout.
    ZeroVariance,
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Empty => write!(f, "spectral fit: empty spectrum"),
            FitError::LengthMismatch { modelled, measured } => write!(
                f,
                "spectral fit: length mismatch (modelled {modelled}, measured {measured})"
            ),
            FitError::NonFinite { index } => {
                write!(f, "spectral fit: non-finite intensity at index {index}")
            }
            FitError::ZeroVariance => {
                write!(f, "spectral fit: zero-area window cannot be normalized")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// How well a measured spectrum matches the modelled (noiseless) render
/// of the same mixture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralFit {
    /// Total-variation distance between the two area-normalized spectra,
    /// in `[0, 1]`. `0` is a perfect shape match, `1` fully disjoint.
    pub distance: f64,
    /// `1 - distance` — a fit score where `1` is perfect.
    pub score: f64,
}

/// Compares a measured spectrum against a modelled render of the same
/// mixture on the same axis, by total-variation distance between the
/// area-normalized intensity vectors.
///
/// Area normalization cancels global gain drift (detector sensitivity,
/// sample amount), so the distance responds only to *shape* changes —
/// peak broadening, mass-axis offset, attenuation-law steepening — which
/// is exactly what instrument re-characterization can repair.
///
/// Every degenerate input is rejected with a [`FitError`] instead of
/// leaking a NaN into downstream statistics.
pub fn spectral_fit(modelled: &[f64], measured: &[f64]) -> Result<SpectralFit, FitError> {
    if modelled.is_empty() || measured.is_empty() {
        return Err(FitError::Empty);
    }
    if modelled.len() != measured.len() {
        return Err(FitError::LengthMismatch {
            modelled: modelled.len(),
            measured: measured.len(),
        });
    }
    for (index, value) in modelled.iter().chain(measured.iter()).enumerate() {
        if !value.is_finite() {
            return Err(FitError::NonFinite {
                index: index % modelled.len(),
            });
        }
    }
    // Clamp sub-zero noise excursions to zero before normalizing: a
    // probability-style vector keeps the TV distance inside [0, 1].
    let area = |spectrum: &[f64]| -> f64 { spectrum.iter().map(|v| v.max(0.0)).sum() };
    let modelled_area = area(modelled);
    let measured_area = area(measured);
    if modelled_area <= f64::EPSILON || measured_area <= f64::EPSILON {
        return Err(FitError::ZeroVariance);
    }
    let distance: f64 = modelled
        .iter()
        .zip(measured.iter())
        .map(|(m, x)| (m.max(0.0) / modelled_area - x.max(0.0) / measured_area).abs())
        .sum::<f64>()
        / 2.0;
    let distance = distance.clamp(0.0, 1.0);
    Ok(SpectralFit {
        distance,
        score: 1.0 - distance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DetectorConfig {
        DetectorConfig {
            learn_windows: 4,
            ewma_alpha: 0.3,
            cusum_slack: 0.05,
            cusum_threshold: 0.12,
            cusum_clip: 0.05,
            confirm_ticks: 3,
            clear_ticks: 2,
        }
    }

    #[test]
    fn learns_then_stays_stable_on_baseline_noise() {
        let mut detector = DriftDetector::new(config()).unwrap();
        for (i, x) in [0.20, 0.22, 0.18, 0.21].iter().enumerate() {
            assert_eq!(detector.observe(*x), Verdict::Learning, "obs {i}");
        }
        let baseline = detector.baseline().unwrap();
        assert!((baseline - 0.2025).abs() < 1e-12);
        for x in [0.21, 0.19, 0.23, 0.20, 0.22, 0.18] {
            assert_eq!(detector.observe(x), Verdict::Stable);
        }
        assert_eq!(detector.cusum(), 0.0);
    }

    #[test]
    fn sustained_shift_confirms_after_hysteresis() {
        let mut detector = DriftDetector::new(config()).unwrap();
        for x in [0.20, 0.20, 0.20, 0.20] {
            detector.observe(x);
        }
        // +0.15 over baseline: each window contributes the winsorized
        // +0.05, so the CUSUM crosses the 0.12 threshold on window 3
        // and the confirm streak completes on window 5.
        let verdicts: Vec<Verdict> = (0..5).map(|_| detector.observe(0.35)).collect();
        assert_eq!(
            verdicts,
            vec![
                Verdict::Stable,
                Verdict::Stable,
                Verdict::Suspected,
                Verdict::Suspected,
                Verdict::Confirmed
            ]
        );
        // Confirmed latches even if the distance falls back.
        assert_eq!(detector.observe(0.20), Verdict::Confirmed);
        assert_eq!(detector.verdict(), Verdict::Confirmed);
    }

    #[test]
    fn single_spike_is_suppressed_and_clears() {
        let mut detector = DriftDetector::new(config()).unwrap();
        for x in [0.20, 0.20, 0.20, 0.20] {
            detector.observe(x);
        }
        // One huge window is winsorized to a +0.05 contribution — it
        // cannot even raise a suspicion, let alone confirm.
        assert_eq!(detector.observe(0.60), Verdict::Stable);
        assert!(detector.cusum() <= 0.05 + 1e-12);
        // Calm windows drain the statistic straight back to zero.
        assert_eq!(detector.observe(0.20), Verdict::Stable);
        assert_eq!(detector.observe(0.20), Verdict::Stable);
        assert_eq!(detector.cusum(), 0.0);
    }

    #[test]
    fn transient_excursion_is_suspected_then_cleared() {
        let mut detector = DriftDetector::new(config()).unwrap();
        for x in [0.20, 0.20, 0.20, 0.20] {
            detector.observe(x);
        }
        // Three elevated windows raise a suspicion…
        assert_eq!(detector.observe(0.35), Verdict::Stable);
        assert_eq!(detector.observe(0.35), Verdict::Stable);
        assert_eq!(detector.observe(0.35), Verdict::Suspected);
        // …but the drift reverts: hysteresis holds the suspicion for
        // `clear_ticks` calm windows, then clears without confirming.
        assert_eq!(detector.observe(0.20), Verdict::Suspected);
        assert_eq!(detector.observe(0.20), Verdict::Stable);
        assert!(!matches!(detector.verdict(), Verdict::Confirmed));
    }

    #[test]
    fn non_finite_is_rejected_without_state_change() {
        let mut detector = DriftDetector::new(config()).unwrap();
        for x in [0.2, 0.2, 0.2, 0.2, 0.2] {
            detector.observe(x);
        }
        let cusum = detector.cusum();
        let before = detector.observations();
        assert_eq!(detector.observe(f64::NAN), Verdict::Stable);
        assert_eq!(detector.observe(f64::INFINITY), Verdict::Stable);
        assert_eq!(detector.rejected(), 2);
        assert_eq!(detector.observations(), before);
        assert_eq!(detector.cusum(), cusum);
    }

    #[test]
    fn reset_relearns_baseline() {
        let mut detector = DriftDetector::new(config()).unwrap();
        for x in [0.2, 0.2, 0.2, 0.2, 0.5, 0.5, 0.5, 0.5, 0.5] {
            detector.observe(x);
        }
        assert_eq!(detector.verdict(), Verdict::Confirmed);
        detector.observe(f64::NAN);
        detector.reset();
        assert_eq!(detector.verdict(), Verdict::Learning);
        assert_eq!(detector.baseline(), None);
        assert_eq!(detector.rejected(), 1, "rejection count survives reset");
        // Relearns around the new level without alarming.
        for x in [0.5, 0.5, 0.5, 0.5, 0.5] {
            detector.observe(x);
        }
        assert_eq!(detector.verdict(), Verdict::Stable);
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        for bad in [
            DetectorConfig {
                learn_windows: 0,
                ..config()
            },
            DetectorConfig {
                ewma_alpha: 0.0,
                ..config()
            },
            DetectorConfig {
                ewma_alpha: 1.5,
                ..config()
            },
            DetectorConfig {
                cusum_threshold: 0.0,
                ..config()
            },
            DetectorConfig {
                cusum_slack: f64::NAN,
                ..config()
            },
            DetectorConfig {
                cusum_clip: 0.0,
                ..config()
            },
        ] {
            assert!(DriftDetector::new(bad).is_err());
        }
    }

    #[test]
    fn spectral_fit_rejects_empty_spectra() {
        assert_eq!(spectral_fit(&[], &[]), Err(FitError::Empty));
        assert_eq!(spectral_fit(&[1.0], &[]), Err(FitError::Empty));
        assert_eq!(spectral_fit(&[], &[1.0]), Err(FitError::Empty));
    }

    #[test]
    fn spectral_fit_rejects_length_mismatch() {
        assert_eq!(
            spectral_fit(&[1.0, 2.0], &[1.0]),
            Err(FitError::LengthMismatch {
                modelled: 2,
                measured: 1
            })
        );
    }

    #[test]
    fn spectral_fit_rejects_nan_and_infinite_measurements() {
        let modelled = [1.0, 2.0, 3.0];
        assert_eq!(
            spectral_fit(&modelled, &[1.0, f64::NAN, 3.0]),
            Err(FitError::NonFinite { index: 1 })
        );
        assert_eq!(
            spectral_fit(&modelled, &[f64::INFINITY, 2.0, 3.0]),
            Err(FitError::NonFinite { index: 0 })
        );
        assert_eq!(
            spectral_fit(&[1.0, 2.0, f64::NAN], &[1.0, 2.0, 3.0]),
            Err(FitError::NonFinite { index: 2 })
        );
    }

    #[test]
    fn spectral_fit_rejects_zero_variance_windows() {
        let modelled = [1.0, 2.0, 3.0];
        // All-zero window — e.g. a sensor blackout frame.
        assert_eq!(
            spectral_fit(&modelled, &[0.0, 0.0, 0.0]),
            Err(FitError::ZeroVariance)
        );
        // All-negative noise clamps to zero area too.
        assert_eq!(
            spectral_fit(&modelled, &[-1.0, -0.5, -2.0]),
            Err(FitError::ZeroVariance)
        );
        assert_eq!(
            spectral_fit(&[0.0, 0.0, 0.0], &modelled),
            Err(FitError::ZeroVariance)
        );
    }

    #[test]
    fn spectral_fit_is_gain_invariant_and_bounded() {
        let modelled = [0.0, 1.0, 4.0, 1.0, 0.0];
        let scaled: Vec<f64> = modelled.iter().map(|v| v * 37.5).collect();
        let fit = spectral_fit(&modelled, &scaled).unwrap();
        assert!(fit.distance < 1e-12, "distance {}", fit.distance);
        assert!((fit.score - 1.0).abs() < 1e-12);

        // Fully disjoint shapes sit at the top of the range.
        let disjoint = spectral_fit(&[1.0, 0.0], &[0.0, 1.0]).unwrap();
        assert!((disjoint.distance - 1.0).abs() < 1e-12);
        assert!(disjoint.score.abs() < 1e-12);

        // A moderate shape change lands strictly inside (0, 1).
        let shifted = spectral_fit(&[0.0, 1.0, 4.0, 1.0, 0.0], &[0.0, 0.5, 3.0, 2.5, 0.0]).unwrap();
        assert!(shifted.distance > 0.0 && shifted.distance < 1.0);
    }
}
