//! Property-based tests for the spectrum substrate.

use proptest::prelude::*;
use spectrum::{interp, stats, LineSpectrum, PeakShape, UniformAxis};

fn finite_axis() -> impl Strategy<Value = UniformAxis> {
    (-100.0..100.0f64, 0.01..5.0f64, 2..512usize)
        .prop_map(|(start, step, len)| UniformAxis::new(start, step, len).expect("valid axis"))
}

fn sticks() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-50.0..150.0f64, 0.0..100.0f64), 0..40)
}

proptest! {
    #[test]
    fn axis_values_are_monotone(axis in finite_axis()) {
        let values = axis.values();
        for w in values.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn axis_nearest_index_inverts_value_at(axis in finite_axis(), idx in 0..512usize) {
        let idx = idx % axis.len();
        let x = axis.value_at(idx);
        prop_assert_eq!(axis.nearest_index(x), Some(idx));
    }

    #[test]
    fn line_spectrum_is_sorted_and_non_negative(raw in sticks()) {
        let spec = LineSpectrum::from_sticks(raw).expect("valid sticks");
        let mut prev = f64::NEG_INFINITY;
        for &(pos, int) in spec.sticks() {
            prop_assert!(pos > prev);
            prop_assert!(int >= 0.0);
            prev = pos;
        }
    }

    #[test]
    fn superposition_total_is_weighted_sum(raw_a in sticks(), raw_b in sticks(),
                                           wa in 0.0..5.0f64, wb in 0.0..5.0f64) {
        let a = LineSpectrum::from_sticks(raw_a).expect("valid");
        let b = LineSpectrum::from_sticks(raw_b).expect("valid");
        let mix = LineSpectrum::superpose(&[(&a, wa), (&b, wb)]).expect("valid");
        let expect = wa * a.total_intensity() + wb * b.total_intensity();
        prop_assert!((mix.total_intensity() - expect).abs() <= 1e-9 * (1.0 + expect));
    }

    #[test]
    fn scaling_is_homogeneous(raw in sticks(), k in 0.0..10.0f64) {
        let spec = LineSpectrum::from_sticks(raw).expect("valid");
        let scaled = spec.scaled(k);
        prop_assert!((scaled.total_intensity() - k * spec.total_intensity()).abs()
            <= 1e-9 * (1.0 + spec.total_intensity() * k));
    }

    #[test]
    fn normalized_to_total_sums_to_one(raw in sticks()) {
        let spec = LineSpectrum::from_sticks(raw).expect("valid");
        if spec.total_intensity() > 1e-9 {
            let norm = spec.normalized_to_total();
            prop_assert!((norm.total_intensity() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn peak_shapes_are_non_negative_and_symmetric(
        fwhm in 0.01..10.0f64, eta in 0.0..1.0f64, dx in -50.0..50.0f64
    ) {
        let shape = PeakShape::lorentz_gauss(fwhm, eta).expect("valid");
        let v = shape.evaluate(dx);
        prop_assert!(v >= 0.0);
        prop_assert!((v - shape.evaluate(-dx)).abs() < 1e-12 * (1.0 + v));
    }

    #[test]
    fn render_is_non_negative(raw in sticks(), fwhm in 0.05..2.0f64) {
        let spec = LineSpectrum::from_sticks(raw).expect("valid");
        let axis = UniformAxis::new(-60.0, 0.5, 440).expect("valid axis");
        let shape = PeakShape::gaussian(fwhm).expect("valid shape");
        let cont = spec.render(&axis, &shape);
        prop_assert!(cont.intensities().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn resample_to_same_axis_is_identity(samples in prop::collection::vec(-10.0..10.0f64, 2..128)) {
        let axis = UniformAxis::new(0.0, 1.0, samples.len()).expect("valid");
        let out = interp::resample(&axis, &samples, &axis);
        for (a, b) in out.iter().zip(&samples) {
            prop_assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn interpolation_is_bounded_by_neighbours(
        samples in prop::collection::vec(-10.0..10.0f64, 2..64),
        frac in 0.0..1.0f64
    ) {
        let axis = UniformAxis::new(0.0, 1.0, samples.len()).expect("valid");
        let i = samples.len() / 2 - 1;
        let x = axis.value_at(i) + frac;
        let y = interp::linear_at(&axis, &samples, x);
        let lo = samples[i].min(samples[i + 1]);
        let hi = samples[i].max(samples[i + 1]);
        prop_assert!(y >= lo - 1e-12 && y <= hi + 1e-12);
    }

    #[test]
    fn mae_is_zero_iff_equal(values in prop::collection::vec(-10.0..10.0f64, 1..64)) {
        prop_assert_eq!(stats::mae(&values, &values).expect("same length"), 0.0);
    }

    #[test]
    fn mae_is_symmetric(a in prop::collection::vec(-10.0..10.0f64, 1..32),
                        b in prop::collection::vec(-10.0..10.0f64, 1..32)) {
        if a.len() == b.len() {
            let ab = stats::mae(&a, &b).expect("same length");
            let ba = stats::mae(&b, &a).expect("same length");
            prop_assert!((ab - ba).abs() < 1e-12);
        }
    }

    #[test]
    fn rmse_dominates_mae(a in prop::collection::vec(-10.0..10.0f64, 2..32)) {
        let zeros = vec![0.0; a.len()];
        let mae = stats::mae(&a, &zeros).expect("ok");
        let rmse = stats::rmse(&a, &zeros).expect("ok");
        prop_assert!(rmse + 1e-12 >= mae);
    }
}
