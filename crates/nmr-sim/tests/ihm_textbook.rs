//! IHM on acquired spectra, checked bit for bit against the textbook fit.
//!
//! `IhmAnalyzer::fit` renders its basis column by column and reuses the
//! columns across Levenberg–Marquardt evaluations. The textbook fit below
//! is the one it replaced: every evaluation renders all components into a
//! fresh basis matrix and solves `nnls` on it. Both must agree in every
//! field of every fit, to the bit.

use chem::nmr::{lithiation_components, NmrComponent};
use chemometrics::ihm::{IhmAnalyzer, IhmConfig, IhmFit};
use chemometrics::lm::{levenberg_marquardt, LmOptions};
use chemometrics::ChemometricsError;
use nmr_sim::experiment::{ExperimentConfig, FlowReactorExperiment};
use spectrum::linalg::{nnls, Matrix};
use spectrum::{ContinuousSpectrum, UniformAxis};

fn textbook_solve_linear(
    components: &[NmrComponent],
    axis: &UniformAxis,
    data: &[f64],
    theta: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), ChemometricsError> {
    let mut basis = Matrix::zeros(axis.len(), components.len());
    for (j, component) in components.iter().enumerate() {
        let rendered = component.render(axis, 1.0, theta[2 * j], theta[2 * j + 1])?;
        for (i, &v) in rendered.intensities().iter().enumerate() {
            basis.set(i, j, v);
        }
    }
    let conc = nnls(&basis, data, 8)?;
    let model = basis.matvec(&conc);
    let residuals = model.iter().zip(data).map(|(m, d)| m - d).collect();
    Ok((conc, residuals))
}

fn textbook_fit(
    components: &[NmrComponent],
    config: &IhmConfig,
    spectrum: &ContinuousSpectrum,
) -> IhmFit {
    let axis = spectrum.axis();
    let data = spectrum.intensities().to_vec();
    let c = components.len();
    let initial: Vec<f64> = (0..c).flat_map(|_| [0.0, 1.0]).collect();
    let options = LmOptions {
        lower_bounds: (0..c)
            .flat_map(|_| [-config.max_shift, config.broaden_bounds.0])
            .collect(),
        upper_bounds: (0..c)
            .flat_map(|_| [config.max_shift, config.broaden_bounds.1])
            .collect(),
        ..config.lm.clone()
    };
    let result = levenberg_marquardt(
        |theta| match textbook_solve_linear(components, axis, &data, theta) {
            Ok((_, residuals)) => residuals,
            Err(_) => vec![1e6; data.len()],
        },
        &initial,
        &options,
    )
    .unwrap();
    let (concentrations, residuals) =
        textbook_solve_linear(components, axis, &data, &result.parameters).unwrap();
    let rms = (residuals.iter().map(|r| r * r).sum::<f64>() / residuals.len() as f64).sqrt();
    IhmFit {
        concentrations,
        shifts: (0..c).map(|j| result.parameters[2 * j]).collect(),
        broadenings: (0..c).map(|j| result.parameters[2 * j + 1]).collect(),
        residual_rms: rms,
        iterations: result.iterations,
    }
}

fn assert_bits_eq(what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{what}[{i}]: {g} vs textbook {w}");
    }
}

#[test]
fn ihm_fit_is_bit_identical_to_textbook_on_acquired_spectra() {
    let run = FlowReactorExperiment::new(1, ExperimentConfig::default())
        .acquire()
        .unwrap();
    let components = lithiation_components();
    let config = IhmConfig::default();
    let analyzer = IhmAnalyzer::new(components.clone(), run.axis).unwrap();
    // Every tenth spectrum: 30 fits across all 15 plateaus, including
    // spectra 0 and 150.
    let mut fits = 0;
    for index in (0..run.len()).step_by(10) {
        let got = analyzer.fit(&run.spectra[index]).unwrap();
        let want = textbook_fit(&components, &config, &run.spectra[index]);
        let what = format!("spectrum {index}");
        assert_bits_eq(
            &format!("{what} concentrations"),
            &got.concentrations,
            &want.concentrations,
        );
        assert_bits_eq(&format!("{what} shifts"), &got.shifts, &want.shifts);
        assert_bits_eq(
            &format!("{what} broadenings"),
            &got.broadenings,
            &want.broadenings,
        );
        assert_bits_eq(
            &format!("{what} rms"),
            &[got.residual_rms],
            &[want.residual_rms],
        );
        assert_eq!(got.iterations, want.iterations, "{what} iterations");
        fits += 1;
    }
    assert_eq!(fits, 30);
}
