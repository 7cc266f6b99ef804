//! Property-based tests for the NMR simulation crate.

use nmr_sim::augment::{AugmentationConfig, SpectraAugmenter};
use nmr_sim::sequence::sliding_windows;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn generated_datasets_respect_bounds(count in 1usize..8, seed in 0u64..500) {
        let config = AugmentationConfig::default();
        let bounds = config.concentration_max.clone();
        let augmenter = SpectraAugmenter::new(config).expect("augmenter");
        let data = augmenter.generate(count, seed).expect("generate");
        prop_assert_eq!(data.len(), count);
        for conc in &data.concentrations {
            for (c, max) in conc.iter().zip(&bounds) {
                prop_assert!(*c >= 0.0 && c <= max);
            }
        }
        for input in &data.inputs {
            prop_assert_eq!(input.len(), 1700);
            prop_assert!(input.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn synthesis_is_monotone_in_concentration(c1 in 0.05..0.4f64, scale in 1.5..3.0f64) {
        let config = AugmentationConfig {
            shift_sigma: 0.0,
            broaden_range: (1.0, 1.0),
            noise_sigma: 0.0,
            baseline_amplitude: 0.0,
            ..AugmentationConfig::default()
        };
        let augmenter = SpectraAugmenter::new(config).expect("augmenter");
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let low = augmenter.synthesize(&[c1, 0.1, 0.1, 0.1], &mut rng).expect("low");
        let high = augmenter.synthesize(&[c1 * scale, 0.1, 0.1, 0.1], &mut rng).expect("high");
        prop_assert!(high.area() > low.area());
    }

    #[test]
    fn sliding_window_counts_and_targets(n in 2usize..40, window in 1usize..6) {
        prop_assume!(window <= n);
        let spectra: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, -(i as f64)]).collect();
        let targets: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 2.0]).collect();
        let set = sliding_windows(&spectra, &targets, window).expect("windows");
        prop_assert_eq!(set.len(), n - window + 1);
        // Target of window k is the target of its last spectrum.
        for (k, t) in set.targets.iter().enumerate() {
            prop_assert_eq!(t[0], (k + window - 1) as f64 * 2.0);
        }
        // Inputs are the concatenation of `window` spectra.
        prop_assert!(set.inputs().all(|row| row.len() == window * 2));
    }
}
