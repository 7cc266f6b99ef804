//! Layer probes outside the tier: `FrozenPlan::predict_batch` on one
//! core at batch 1 and 32, and `ModelRegistry::publish` (compile
//! included).

use std::time::Instant;

use serve::ModelRegistry;

use crate::serving::{Inputs, LSTM_MODEL, MS_MODEL};
use crate::stats::median;
use crate::trace::Tracer;

type Res<T> = Result<T, String>;

#[derive(Debug, Clone)]
pub struct Neural {
    pub ms_b1_us: f64,
    pub ms_b32_us: f64,
    /// Computed from `macs_per_inference`, not counted by hardware.
    pub ms_b32_gmac_s: f64,
    pub lstm_b32_us: f64,
    pub publish_ms: f64,
}

/// Median microseconds per `predict_batch` call over `reps` calls on a
/// batch of `batch` inputs cycled from `pool`.
fn time_batch(
    plan: &spectroai::neural::plan::FrozenPlan,
    pool: &[Vec<f32>],
    batch: usize,
    reps: usize,
) -> Res<f64> {
    let block: Vec<f32> = pool.iter().cycle().take(batch).flatten().copied().collect();
    let mut out = Vec::new();
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        out.clear();
        let t = Instant::now();
        let n = plan
            .predict_batch(std::hint::black_box(&block), &mut out)
            .map_err(|e| e.to_string())?;
        let us = t.elapsed().as_secs_f64() * 1e6;
        if n != batch {
            return Err(format!("predict_batch ran {n} of {batch} samples"));
        }
        // The first call warms caches and is not kept.
        if rep > 0 {
            samples.push(us);
        }
    }
    std::hint::black_box(&out);
    median(&samples).ok_or_else(|| "no probe samples".into())
}

pub fn neural(inputs: &Inputs, tracer: &Tracer) -> Res<Neural> {
    let registry = ModelRegistry::new();
    let mut publish = Vec::new();
    let mut ms_plan = None;
    for version in 1..=5 {
        let t = Instant::now();
        let plan = registry
            .publish(MS_MODEL, version, &inputs.ms_exports[0])
            .map_err(|e| e.to_string())?;
        publish.push(t.elapsed().as_secs_f64() * 1e3);
        ms_plan = Some(plan);
    }
    let ms_plan = ms_plan.ok_or("no plan published")?;
    let lstm_plan = registry
        .publish(LSTM_MODEL, 1, &inputs.lstm_export)
        .map_err(|e| e.to_string())?;
    let (b1, _) = tracer.time("neural.ms_infer_b1", None, || {
        time_batch(&ms_plan, &inputs.ms, 1, 300)
    });
    let (b32, _) = tracer.time("neural.ms_infer_b32", None, || {
        time_batch(&ms_plan, &inputs.ms, 32, 40)
    });
    let (lstm, _) = tracer.time("neural.lstm_infer_b32", None, || {
        time_batch(&lstm_plan, &inputs.lstm, 32, 20)
    });
    let ms_b32_us = b32?;
    Ok(Neural {
        ms_b1_us: b1?,
        ms_b32_us,
        ms_b32_gmac_s: 32.0 * ms_plan.macs_per_inference() as f64 / (ms_b32_us * 1e3),
        lstm_b32_us: lstm?,
        publish_ms: median(&publish).ok_or("no publish samples")?,
    })
}
