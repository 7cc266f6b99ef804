//! Error metrics shared by every evaluation in the workspace (MAE is
//! the paper's headline metric; MSE is used for the NMR comparison).

use crate::SpectrumError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`SpectrumError::Empty`] for an empty slice.
pub fn mean(values: &[f64]) -> Result<f64, SpectrumError> {
    if values.is_empty() {
        return Err(SpectrumError::Empty);
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// Mean absolute error between predictions and targets — the loss function
/// and headline quality metric of the paper's MS study.
///
/// # Errors
///
/// Returns [`SpectrumError::ShapeMismatch`] on length mismatch or
/// [`SpectrumError::Empty`] for empty inputs.
pub fn mae(predictions: &[f64], targets: &[f64]) -> Result<f64, SpectrumError> {
    check(predictions, targets)?;
    Ok(predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / predictions.len() as f64)
}

/// Mean squared error — the paper's NMR comparison metric.
///
/// # Errors
///
/// Returns [`SpectrumError::ShapeMismatch`] on length mismatch or
/// [`SpectrumError::Empty`] for empty inputs.
pub fn mse(predictions: &[f64], targets: &[f64]) -> Result<f64, SpectrumError> {
    check(predictions, targets)?;
    Ok(predictions
        .iter()
        .zip(targets)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / predictions.len() as f64)
}

/// Root mean squared error.
///
/// # Errors
///
/// Same conditions as [`mse`].
pub fn rmse(predictions: &[f64], targets: &[f64]) -> Result<f64, SpectrumError> {
    Ok(mse(predictions, targets)?.sqrt())
}

/// Pearson correlation coefficient.
///
/// # Errors
///
/// Returns [`SpectrumError::ShapeMismatch`] on length mismatch,
/// [`SpectrumError::Empty`] for empty inputs, or
/// [`SpectrumError::InvalidValue`] if either input is constant.
pub fn pearson(a: &[f64], b: &[f64]) -> Result<f64, SpectrumError> {
    check(a, b)?;
    let ma = mean(a)?;
    let mb = mean(b)?;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return Err(SpectrumError::InvalidValue(
            "correlation of a constant sequence is undefined".into(),
        ));
    }
    Ok(cov / (va.sqrt() * vb.sqrt()))
}

fn check(a: &[f64], b: &[f64]) -> Result<(), SpectrumError> {
    if a.is_empty() {
        return Err(SpectrumError::Empty);
    }
    if a.len() != b.len() {
        return Err(SpectrumError::ShapeMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]).unwrap(), 2.0);
        assert!(mean(&[]).is_err());
    }

    #[test]
    fn mae_basic() {
        assert_eq!(mae(&[1.0, 2.0], &[2.0, 0.0]).unwrap(), 1.5);
        assert_eq!(mae(&[1.0], &[1.0]).unwrap(), 0.0);
    }

    #[test]
    fn mse_and_rmse() {
        assert_eq!(mse(&[0.0, 0.0], &[3.0, 4.0]).unwrap(), 12.5);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]).unwrap() - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn mismatched_lengths_fail() {
        assert!(mae(&[1.0], &[1.0, 2.0]).is_err());
        assert!(mse(&[], &[]).is_err());
    }

    #[test]
    fn pearson_of_linear_relation_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b).unwrap() - 1.0).abs() < 1e-12);
        let c = [-2.0, -4.0, -6.0, -8.0];
        assert!((pearson(&a, &c).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_of_constant_fails() {
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_err());
    }
}
