//! Golden-file regression test for the inference kernels.
//!
//! Pins the exact numeric output of both forward implementations on the
//! paper's Table-1 topology against a blessed fixture under
//! `tests/golden/`: the `reference/*` cases are sequential
//! `Network::predict`, the `batched/*` cases `FrozenPlan::predict_batch`.
//! Every value is stored as the hex of its `f32` bit pattern, so the
//! comparison is bit-exact: any change to weight initialization, kernel
//! blocking, accumulation order, or activation math shows up as a
//! failure naming the first diverging index. The batched kernels are
//! tolerance-gated against `Network::predict` at runtime, but their
//! *own* output must still be deterministic — that is what this fixture
//! pins.
//!
//! To re-bless after an intentional change:
//! `NEURAL_GOLDEN_BLESS=1 cargo test -p neural --test golden_kernels`

use std::fmt::Write as _;
use std::path::PathBuf;

use neural::kernels::Scratch;
use neural::plan::FrozenPlan;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::Activation;

const FIXTURE: &str = "kernels_table1_v1.txt";

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(FIXTURE)
}

/// The paper's Table-1 CNN: 397 inputs → four Conv1d stages → Dense
/// softmax head (the same topology `serve_load` benchmarks).
fn table1_spec() -> NetworkSpec {
    NetworkSpec::new(397)
        .layer(LayerSpec::Reshape { channels: 1 })
        .layer(LayerSpec::Conv1d {
            filters: 25,
            kernel: 20,
            stride: 1,
            activation: Activation::Selu,
        })
        .layer(LayerSpec::Conv1d {
            filters: 25,
            kernel: 20,
            stride: 3,
            activation: Activation::Selu,
        })
        .layer(LayerSpec::Conv1d {
            filters: 25,
            kernel: 15,
            stride: 2,
            activation: Activation::Selu,
        })
        .layer(LayerSpec::Conv1d {
            filters: 15,
            kernel: 15,
            stride: 4,
            activation: Activation::Softmax,
        })
        .layer(LayerSpec::Flatten)
        .layer(LayerSpec::Dense {
            units: 8,
            activation: Activation::Softmax,
        })
}

fn table1_network_and_plan() -> (neural::Network, FrozenPlan) {
    let spec = table1_spec();
    let net = spec.build(42).expect("build Table-1 network");
    let plan = FrozenPlan::from_spec_weights("table1-golden", &spec, &net.export_weights())
        .expect("compile Table-1 plan");
    (net, plan)
}

/// Deterministic spectrum-shaped inputs (sign-varying, in the range the
/// activations care about).
fn wave_inputs(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as f32) * 0.21 + seed as f32 * 0.13).sin() * 1.5)
        .collect()
}

fn hex_line(values: &[f32]) -> String {
    let mut line = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            line.push(' ');
        }
        write!(line, "{:08x}", v.to_bits()).expect("write hex word");
    }
    line
}

/// Renders the full fixture text: one `case <name>` header per
/// implementation × batch-size combination, then one line of f32 bit
/// patterns.
fn render_fixture() -> String {
    let (mut net, plan) = table1_network_and_plan();
    let mut scratch = Scratch::new();
    let mut out = String::new();
    out.push_str("# neural golden fixture: bit-exact FrozenPlan outputs on the Table-1 net.\n");
    out.push_str("# Values are hex f32 bit patterns, batch-major (sample 0 first).\n");
    out.push_str(
        "# Regenerate with: NEURAL_GOLDEN_BLESS=1 cargo test -p neural --test golden_kernels\n",
    );

    for backend_name in ["reference", "batched"] {
        for batch in [1usize, 32] {
            let inputs = wave_inputs(batch * plan.input_len(), batch as u32);
            let mut outputs = Vec::new();
            if backend_name == "reference" {
                for x in inputs.chunks_exact(plan.input_len()) {
                    outputs.extend(net.predict(x));
                }
            } else {
                plan.predict_batch_scratch(&inputs, &mut outputs, &mut scratch, &mut |_, _| {})
                    .expect("predict batch");
            }
            writeln!(out, "case {backend_name}/batch-{batch}").expect("write case header");
            out.push_str(&hex_line(&outputs));
            out.push('\n');
        }
    }
    out
}

/// Splits fixture text into `(case name, hex words)` pairs.
fn parse_cases(text: &str) -> Vec<(String, Vec<String>)> {
    let mut cases = Vec::new();
    let mut lines = text.lines().filter(|l| !l.starts_with('#') && !l.is_empty());
    while let Some(header) = lines.next() {
        let name = header
            .strip_prefix("case ")
            .unwrap_or_else(|| panic!("malformed fixture header: {header:?}"));
        let data = lines
            .next()
            .unwrap_or_else(|| panic!("fixture truncated: case {name} has no data line"));
        cases.push((
            name.to_string(),
            data.split_whitespace().map(str::to_string).collect(),
        ));
    }
    cases
}

#[test]
fn kernel_outputs_match_blessed_fixture_bit_for_bit() {
    let current = render_fixture();
    let path = fixture_path();

    if std::env::var("NEURAL_GOLDEN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create golden dir");
        std::fs::write(&path, &current).expect("write blessed fixture");
        println!("blessed {}", path.display());
        return;
    }

    let blessed = std::fs::read_to_string(&path).unwrap_or_else(|err| {
        panic!(
            "missing golden fixture {} ({err}); run NEURAL_GOLDEN_BLESS=1 \
             cargo test -p neural --test golden_kernels to create it",
            path.display()
        )
    });

    let expected = parse_cases(&blessed);
    let actual = parse_cases(&current);
    let expected_names: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    let actual_names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        expected_names, actual_names,
        "golden case list changed; re-bless if intentional"
    );

    for ((name, want), (_, got)) in expected.iter().zip(&actual) {
        assert_eq!(
            want.len(),
            got.len(),
            "case {name}: output count changed ({} blessed vs {} now)",
            want.len(),
            got.len()
        );
        // Report the FIRST diverging index with decoded values: index
        // mod 8 is the class, index / 8 the sample.
        if let Some(i) = (0..want.len()).find(|&i| want[i] != got[i]) {
            let decode = |hex: &str| {
                u32::from_str_radix(hex, 16)
                    .map(f32::from_bits)
                    .unwrap_or(f32::NAN)
            };
            panic!(
                "case {name}: first divergence at flat index {i} (sample {}, class {}): \
                 blessed {} ({:e}) vs current {} ({:e}); {} trailing values not \
                 compared. Re-bless with NEURAL_GOLDEN_BLESS=1 if this change is \
                 intentional.",
                i / 8,
                i % 8,
                want[i],
                decode(&want[i]),
                got[i],
                decode(&got[i]),
                want.len() - i - 1,
            );
        }
    }
}

#[test]
fn fixture_renders_identically_twice() {
    // The generator itself must be deterministic — same seed, same
    // scratch-arena reuse pattern — or the golden comparison would be
    // meaningless.
    assert_eq!(render_fixture(), render_fixture());
}
