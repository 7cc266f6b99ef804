//! Property-based tests for the chemometric algorithms.

use chemometrics::lm::{levenberg_marquardt, LmOptions};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lm_recovers_line_parameters(a in -3.0..3.0f64, b in -3.0..3.0f64) {
        let xs: Vec<f64> = (0..20).map(|i| i as f64 * 0.5).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a * x + b).collect();
        let result = levenberg_marquardt(
            |p| xs.iter().zip(&ys).map(|(&x, &y)| p[0] * x + p[1] - y).collect(),
            &[0.0, 0.0],
            &LmOptions::default(),
        )
        .expect("lm runs");
        prop_assert!((result.parameters[0] - a).abs() < 1e-6);
        prop_assert!((result.parameters[1] - b).abs() < 1e-6);
    }

    #[test]
    fn lm_cost_never_exceeds_initial(scale in 0.1..5.0f64) {
        let xs: Vec<f64> = (0..15).map(|i| i as f64 * 0.3).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| (scale * x).sin()).collect();
        let initial = [0.5f64];
        let initial_cost: f64 = 0.5
            * xs.iter()
                .zip(&ys)
                .map(|(&x, &y)| ((initial[0] * x).sin() - y).powi(2))
                .sum::<f64>();
        let result = levenberg_marquardt(
            |p| xs.iter().zip(&ys).map(|(&x, &y)| (p[0] * x).sin() - y).collect(),
            &initial,
            &LmOptions::default(),
        )
        .expect("lm runs");
        prop_assert!(result.cost <= initial_cost + 1e-12);
    }
}
