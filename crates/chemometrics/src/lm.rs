//! Generic Levenberg–Marquardt least-squares solver.
//!
//! Drives the IHM fit ("these pure components can be found in the total
//! spectrum of a mixture by fitting algorithms", paper §III.B.1) and is
//! reusable for any small nonlinear least-squares problem (e.g. the MS
//! characterization peak fits).

use spectrum::linalg::{solve, Matrix};

use crate::ChemometricsError;

/// Options for [`levenberg_marquardt`].
#[derive(Debug, Clone, PartialEq)]
pub struct LmOptions {
    /// Maximum number of outer iterations.
    pub max_iterations: usize,
    /// Stop when the relative cost improvement falls below this.
    pub cost_tolerance: f64,
    /// Initial damping factor λ.
    pub initial_lambda: f64,
    /// Finite-difference step for the numerical Jacobian.
    pub jacobian_step: f64,
    /// Lower parameter bounds (empty = unbounded).
    pub lower_bounds: Vec<f64>,
    /// Upper parameter bounds (empty = unbounded).
    pub upper_bounds: Vec<f64>,
}

impl Default for LmOptions {
    fn default() -> Self {
        Self {
            max_iterations: 50,
            cost_tolerance: 1e-10,
            initial_lambda: 1e-3,
            jacobian_step: 1e-6,
            lower_bounds: Vec::new(),
            upper_bounds: Vec::new(),
        }
    }
}

/// Result of a Levenberg–Marquardt run.
#[derive(Debug, Clone, PartialEq)]
pub struct LmResult {
    /// Optimized parameters.
    pub parameters: Vec<f64>,
    /// Final cost (half the squared residual norm).
    pub cost: f64,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance criterion was met (vs. iteration cap).
    pub converged: bool,
}

/// Minimizes `||residuals(p)||²` starting from `initial`.
///
/// The residual function returns one entry per data point; the Jacobian is
/// computed by central finite differences. Parameters are clamped to the
/// optional bounds after every accepted step.
///
/// # Errors
///
/// Returns [`ChemometricsError::InvalidInput`] if `initial` is empty, the
/// residual function returns an empty vector, bounds have the wrong
/// length, are NaN or cross (`lower > upper`), `jacobian_step` or
/// `initial_lambda` is not finite and positive, or `cost_tolerance` is
/// not finite and non-negative; singular normal equations are handled
/// internally by raising the damping, but a persistently singular system
/// yields [`ChemometricsError::NoConvergence`].
pub fn levenberg_marquardt<F>(
    mut residuals: F,
    initial: &[f64],
    options: &LmOptions,
) -> Result<LmResult, ChemometricsError>
where
    F: FnMut(&[f64]) -> Vec<f64>,
{
    if initial.is_empty() {
        return Err(ChemometricsError::InvalidInput(
            "no parameters to optimize".into(),
        ));
    }
    for bounds in [&options.lower_bounds, &options.upper_bounds] {
        if !bounds.is_empty() && bounds.len() != initial.len() {
            return Err(ChemometricsError::InvalidInput(format!(
                "bounds length {} does not match parameters {}",
                bounds.len(),
                initial.len()
            )));
        }
    }
    let positive = |x: f64| x.is_finite() && x > 0.0;
    if !positive(options.jacobian_step) || !positive(options.initial_lambda) {
        return Err(ChemometricsError::InvalidInput(format!(
            "jacobian_step {} and initial_lambda {} must be finite and positive",
            options.jacobian_step, options.initial_lambda
        )));
    }
    if !(options.cost_tolerance.is_finite() && options.cost_tolerance >= 0.0) {
        return Err(ChemometricsError::InvalidInput(format!(
            "cost_tolerance {} must be finite and non-negative",
            options.cost_tolerance
        )));
    }
    let lower = &options.lower_bounds;
    let upper = &options.upper_bounds;
    if lower.iter().chain(upper).any(|b| b.is_nan())
        || lower.iter().zip(upper).any(|(lo, hi)| lo > hi)
    {
        return Err(ChemometricsError::InvalidInput(
            "bounds must not be NaN, and every lower bound must not exceed its upper bound".into(),
        ));
    }
    let clamp = |p: &mut [f64]| {
        if !options.lower_bounds.is_empty() {
            for (v, &lo) in p.iter_mut().zip(&options.lower_bounds) {
                if *v < lo {
                    *v = lo;
                }
            }
        }
        if !options.upper_bounds.is_empty() {
            for (v, &hi) in p.iter_mut().zip(&options.upper_bounds) {
                if *v > hi {
                    *v = hi;
                }
            }
        }
    };

    let n = initial.len();
    let mut params = initial.to_vec();
    clamp(&mut params);
    let mut r = residuals(&params);
    if r.is_empty() {
        return Err(ChemometricsError::InvalidInput(
            "residual function returned no residuals".into(),
        ));
    }
    let m = r.len();
    let mut cost = 0.5 * r.iter().map(|v| v * v).sum::<f64>();
    let mut lambda = options.initial_lambda;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..options.max_iterations {
        iterations = iter + 1;
        // Numerical Jacobian (m × n, row-major) by central differences.
        let mut jac = vec![0.0; m * n];
        for j in 0..n {
            let h = options.jacobian_step * (1.0 + params[j].abs());
            let mut hi = params.clone();
            hi[j] += h;
            let mut lo = params.clone();
            lo[j] -= h;
            let r_hi = residuals(&hi);
            let r_lo = residuals(&lo);
            if r_hi.len() != m || r_lo.len() != m {
                return Err(ChemometricsError::InvalidInput(
                    "residual length changed between evaluations".into(),
                ));
            }
            for (i, (hi, lo)) in r_hi.iter().zip(&r_lo).enumerate() {
                jac[i * n + j] = (hi - lo) / (2.0 * h);
            }
        }
        // Normal equations: (JᵀJ + λ diag(JᵀJ)) δ = -Jᵀ r.
        let jac = Matrix::from_vec(m, n, jac);
        let jtj = jac.gram();
        let jtr = jac.transpose_matvec(&r);
        let mut improved = false;
        for _ in 0..12 {
            let mut damped = jtj.clone();
            for d in 0..n {
                let diag = jtj.get(d, d);
                damped.set(d, d, diag + lambda * diag.max(1e-12));
            }
            let neg_jtr: Vec<f64> = jtr.iter().map(|v| -v).collect();
            let delta = match solve(&damped, &neg_jtr) {
                Ok(d) => d,
                Err(_) => {
                    lambda *= 10.0;
                    continue;
                }
            };
            let mut trial: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p + d).collect();
            clamp(&mut trial);
            let r_trial = residuals(&trial);
            let cost_trial = 0.5 * r_trial.iter().map(|v| v * v).sum::<f64>();
            if cost_trial < cost {
                let relative = (cost - cost_trial) / cost.max(1e-300);
                params = trial;
                r = r_trial;
                cost = cost_trial;
                lambda = (lambda * 0.3).max(1e-12);
                improved = true;
                if relative < options.cost_tolerance {
                    converged = true;
                }
                break;
            }
            lambda *= 10.0;
            if lambda > 1e12 {
                break;
            }
        }
        if !improved {
            // Cannot improve further: treat as converged at a (local) optimum.
            converged = true;
        }
        if converged {
            break;
        }
    }

    Ok(LmResult {
        parameters: params,
        cost,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_exponential_decay() {
        // Data from y = 2.0 * exp(-0.5 x); fit amplitude and rate.
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.25).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.0 * (-0.5 * x).exp()).collect();
        let result = levenberg_marquardt(
            |p| {
                xs.iter()
                    .zip(&ys)
                    .map(|(&x, &y)| p[0] * (-p[1] * x).exp() - y)
                    .collect()
            },
            &[1.0, 0.1],
            &LmOptions::default(),
        )
        .unwrap();
        assert!((result.parameters[0] - 2.0).abs() < 1e-6, "{result:?}");
        assert!((result.parameters[1] - 0.5).abs() < 1e-6, "{result:?}");
        assert!(result.converged);
    }

    #[test]
    fn fits_gaussian_peak_parameters() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let truth = (3.0, 5.0, 0.8); // amplitude, center, sigma
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| truth.0 * (-((x - truth.1) / truth.2).powi(2) / 2.0).exp())
            .collect();
        let result = levenberg_marquardt(
            |p| {
                xs.iter()
                    .zip(&ys)
                    .map(|(&x, &y)| p[0] * (-((x - p[1]) / p[2]).powi(2) / 2.0).exp() - y)
                    .collect()
            },
            &[1.0, 4.0, 1.5],
            &LmOptions::default(),
        )
        .unwrap();
        assert!((result.parameters[0] - 3.0).abs() < 1e-4);
        assert!((result.parameters[1] - 5.0).abs() < 1e-4);
        assert!((result.parameters[2].abs() - 0.8).abs() < 1e-4);
    }

    #[test]
    fn respects_bounds() {
        // Optimum at p = 5 but upper bound at 2.
        let options = LmOptions {
            lower_bounds: vec![0.0],
            upper_bounds: vec![2.0],
            ..LmOptions::default()
        };
        let result =
            levenberg_marquardt(|p| vec![p[0] - 5.0], &[1.0], &options).unwrap();
        assert!(result.parameters[0] <= 2.0 + 1e-12);
        assert!((result.parameters[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_empty_parameters() {
        assert!(matches!(
            levenberg_marquardt(|_| vec![0.0], &[], &LmOptions::default()),
            Err(ChemometricsError::InvalidInput(_))
        ));
    }

    #[test]
    fn rejects_bad_bounds() {
        let options = LmOptions {
            lower_bounds: vec![0.0, 0.0],
            ..LmOptions::default()
        };
        assert!(matches!(
            levenberg_marquardt(|p| vec![p[0]], &[1.0], &options),
            Err(ChemometricsError::InvalidInput(_))
        ));
    }

    #[test]
    fn rejects_nonsense_options() {
        let base = LmOptions {
            lower_bounds: vec![0.0, -1.0],
            upper_bounds: vec![2.0, 1.0],
            ..LmOptions::default()
        };
        let bad = [
            LmOptions {
                jacobian_step: 0.0,
                ..base.clone()
            },
            LmOptions {
                jacobian_step: -1e-6,
                ..base.clone()
            },
            LmOptions {
                jacobian_step: f64::NAN,
                ..base.clone()
            },
            LmOptions {
                jacobian_step: f64::INFINITY,
                ..base.clone()
            },
            LmOptions {
                initial_lambda: 0.0,
                ..base.clone()
            },
            LmOptions {
                initial_lambda: -1.0,
                ..base.clone()
            },
            LmOptions {
                initial_lambda: f64::NAN,
                ..base.clone()
            },
            LmOptions {
                initial_lambda: f64::INFINITY,
                ..base.clone()
            },
            LmOptions {
                cost_tolerance: -1e-12,
                ..base.clone()
            },
            LmOptions {
                cost_tolerance: f64::NAN,
                ..base.clone()
            },
            LmOptions {
                cost_tolerance: f64::INFINITY,
                ..base.clone()
            },
            LmOptions {
                lower_bounds: vec![0.0, 1.5],
                ..base.clone()
            },
            LmOptions {
                upper_bounds: vec![f64::NAN, 1.0],
                ..base.clone()
            },
            LmOptions {
                lower_bounds: vec![0.0, f64::NAN],
                upper_bounds: vec![],
                ..base.clone()
            },
        ];
        for options in &bad {
            assert!(
                matches!(
                    levenberg_marquardt(|p| vec![p[0] - 1.0, p[1]], &[1.0, 0.0], options),
                    Err(ChemometricsError::InvalidInput(_))
                ),
                "{options:?} accepted"
            );
        }
        // Infinite bounds are a valid "unbounded side"; a zero tolerance
        // simply runs to the iteration cap.
        let open = LmOptions {
            lower_bounds: vec![f64::NEG_INFINITY, -1.0],
            upper_bounds: vec![f64::INFINITY, 1.0],
            cost_tolerance: 0.0,
            ..LmOptions::default()
        };
        assert!(levenberg_marquardt(|p| vec![p[0] - 1.0, p[1]], &[0.0, 0.5], &open).is_ok());
    }

    #[test]
    fn already_optimal_start_converges_immediately() {
        let result = levenberg_marquardt(
            |p| vec![p[0] - 1.0, p[0] - 1.0],
            &[1.0],
            &LmOptions::default(),
        )
        .unwrap();
        assert!(result.cost < 1e-20);
        assert!(result.converged);
        assert!(result.iterations <= 2);
    }

    #[test]
    fn handles_overparameterized_problems() {
        // Two parameters, but residual depends only on their sum: the
        // damped system stays solvable and reaches zero cost.
        let result = levenberg_marquardt(
            |p| vec![p[0] + p[1] - 3.0],
            &[0.0, 0.0],
            &LmOptions::default(),
        )
        .unwrap();
        assert!(result.cost < 1e-12, "{result:?}");
    }
}
