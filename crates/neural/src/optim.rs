//! Optimizers: SGD with momentum, and Adam.
//!
//! Optimizers keep per-tensor state addressed by a stable *slot* index,
//! which [`crate::Network::apply_gradients`] assigns by visiting layer
//! parameter tensors in order.

use serde::{Deserialize, Serialize};

use crate::NeuralError;

/// A first-order optimizer stepping one parameter tensor at a time.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update to `params` given `grads`. `slot` identifies
    /// the tensor so stateful optimizers can keep per-tensor moments.
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]);

    /// The configured learning rate.
    fn learning_rate(&self) -> f32;

    /// Overrides the learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f32);

    /// Snapshots the internal per-slot state (for checkpointing).
    fn export_state(&self) -> OptimizerState;

    /// Restores state previously produced by [`Optimizer::export_state`].
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidWeights`] if `state` belongs to a
    /// different optimizer kind or its per-slot moment tensors disagree in
    /// length.
    fn import_state(&mut self, state: &OptimizerState) -> Result<(), NeuralError>;
}

/// Serializable snapshot of an optimizer's mutable state, captured in
/// training checkpoints so a resumed run reproduces the uninterrupted one
/// bit for bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptimizerState {
    /// State of [`Sgd`]: per-slot velocity tensors.
    Sgd {
        /// Momentum buffers, indexed by slot.
        velocity: Vec<Vec<f32>>,
    },
    /// State of [`Adam`]: step count plus per-slot moment tensors.
    Adam {
        /// Number of optimization passes taken so far.
        step: u64,
        /// First-moment (mean) buffers, indexed by slot.
        first_moments: Vec<Vec<f32>>,
        /// Second-moment (uncentred variance) buffers, indexed by slot.
        second_moments: Vec<Vec<f32>>,
    },
}

/// Serializable optimizer choice for config-driven training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerSpec {
    /// Stochastic gradient descent with momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient in `[0, 1)`.
        momentum: f32,
    },
    /// Adam with the usual defaults.
    Adam {
        /// Learning rate.
        lr: f32,
    },
}

impl OptimizerSpec {
    /// Builds the optimizer.
    pub fn build(&self) -> Box<dyn Optimizer> {
        match *self {
            OptimizerSpec::Sgd { lr, momentum } => Box::new(Sgd::new(lr, momentum)),
            OptimizerSpec::Adam { lr } => Box::new(Adam::new(lr)),
        }
    }
}

impl Default for OptimizerSpec {
    fn default() -> Self {
        OptimizerSpec::Adam { lr: 1e-3 }
    }
}

/// SGD with classical momentum.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self {
            lr,
            momentum,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "sgd shape mismatch");
        while self.velocity.len() <= slot {
            self.velocity.push(Vec::new());
        }
        let v = &mut self.velocity[slot];
        if v.len() != params.len() {
            *v = vec![0.0; params.len()];
        }
        for ((p, &g), vi) in params.iter_mut().zip(grads).zip(v.iter_mut()) {
            *vi = self.momentum * *vi - self.lr * g;
            *p += *vi;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState::Sgd {
            velocity: self.velocity.clone(),
        }
    }

    fn import_state(&mut self, state: &OptimizerState) -> Result<(), NeuralError> {
        match state {
            OptimizerState::Sgd { velocity } => {
                self.velocity = velocity.clone();
                Ok(())
            }
            other => Err(NeuralError::InvalidWeights(format!(
                "cannot import {other:?} state into Sgd"
            ))),
        }
    }
}

/// Adam (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    epsilon: f32,
    t: u64,
    moments: Vec<(Vec<f32>, Vec<f32>)>,
}

impl Adam {
    /// Creates Adam with standard betas (0.9, 0.999) and eps `1e-8`.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            moments: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "adam shape mismatch");
        while self.moments.len() <= slot {
            self.moments.push((Vec::new(), Vec::new()));
        }
        // Advance time once per optimization pass: slot 0 marks a new pass.
        if slot == 0 {
            self.t += 1;
        }
        let t = self.t.max(1);
        let (m, v) = &mut self.moments[slot];
        if m.len() != params.len() {
            *m = vec![0.0; params.len()];
            *v = vec![0.0; params.len()];
        }
        let bc1 = 1.0 - self.beta1.powi(t as i32);
        let bc2 = 1.0 - self.beta2.powi(t as i32);
        for (((p, &g), mi), vi) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * g;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * g * g;
            let m_hat = *mi / bc1;
            let v_hat = *vi / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.epsilon);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }

    fn export_state(&self) -> OptimizerState {
        OptimizerState::Adam {
            step: self.t,
            first_moments: self.moments.iter().map(|(m, _)| m.clone()).collect(),
            second_moments: self.moments.iter().map(|(_, v)| v.clone()).collect(),
        }
    }

    fn import_state(&mut self, state: &OptimizerState) -> Result<(), NeuralError> {
        match state {
            OptimizerState::Adam {
                step,
                first_moments,
                second_moments,
            } => {
                if first_moments.len() != second_moments.len() {
                    return Err(NeuralError::InvalidWeights(format!(
                        "adam state has {} first moments but {} second moments",
                        first_moments.len(),
                        second_moments.len()
                    )));
                }
                if let Some(slot) = first_moments
                    .iter()
                    .zip(second_moments)
                    .position(|(m, v)| m.len() != v.len())
                {
                    return Err(NeuralError::InvalidWeights(format!(
                        "adam state slot {slot} has {} first moments but {} second moments",
                        first_moments[slot].len(),
                        second_moments[slot].len()
                    )));
                }
                self.t = *step;
                self.moments = first_moments
                    .iter()
                    .cloned()
                    .zip(second_moments.iter().cloned())
                    .collect();
                Ok(())
            }
            other => Err(NeuralError::InvalidWeights(format!(
                "cannot import {other:?} state into Adam"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - 3)^2 and returns the final x.
    fn minimize(optimizer: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut x = vec![0.0f32];
        for _ in 0..steps {
            let grad = vec![2.0 * (x[0] - 3.0)];
            optimizer.step(0, &mut x, &grad);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut opt = Sgd::new(0.1, 0.0);
        let x = minimize(&mut opt, 100);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn sgd_momentum_accelerates() {
        let mut plain = Sgd::new(0.01, 0.0);
        let mut momentum = Sgd::new(0.01, 0.9);
        let x_plain = minimize(&mut plain, 30);
        let x_momentum = minimize(&mut momentum, 30);
        assert!((x_momentum - 3.0).abs() < (x_plain - 3.0).abs());
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut opt = Adam::new(0.1);
        let x = minimize(&mut opt, 300);
        assert!((x - 3.0).abs() < 1e-2, "x = {x}");
    }

    #[test]
    fn adam_handles_multiple_slots_independently() {
        let mut opt = Adam::new(0.05);
        let mut a = vec![0.0f32];
        let mut b = vec![0.0f32];
        for _ in 0..500 {
            let ga = vec![2.0 * (a[0] - 1.0)];
            let gb = vec![2.0 * (b[0] + 2.0)];
            opt.step(0, &mut a, &ga);
            opt.step(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 0.05, "a = {}", a[0]);
        assert!((b[0] + 2.0).abs() < 0.05, "b = {}", b[0]);
    }

    #[test]
    fn spec_builds_expected_kind() {
        let sgd = OptimizerSpec::Sgd {
            lr: 0.1,
            momentum: 0.5,
        }
        .build();
        assert_eq!(sgd.learning_rate(), 0.1);
        let adam = OptimizerSpec::Adam { lr: 0.002 }.build();
        assert_eq!(adam.learning_rate(), 0.002);
    }

    #[test]
    fn learning_rate_can_be_decayed() {
        let mut opt = Adam::new(0.01);
        opt.set_learning_rate(0.001);
        assert_eq!(opt.learning_rate(), 0.001);
    }

    #[test]
    fn state_roundtrip_resumes_identically() {
        // Drive two copies: one stepping straight through, one exported
        // and re-imported mid-run. Their trajectories must match exactly.
        for spec in [
            OptimizerSpec::Sgd {
                lr: 0.05,
                momentum: 0.9,
            },
            OptimizerSpec::Adam { lr: 0.05 },
        ] {
            let mut straight = spec.build();
            let mut resumed = spec.build();
            let mut x_straight = vec![0.0f32, 4.0];
            let mut x_resumed = x_straight.clone();
            for _ in 0..10 {
                let g: Vec<f32> = x_straight.iter().map(|x| 2.0 * (x - 3.0)).collect();
                straight.step(0, &mut x_straight, &g);
                let g: Vec<f32> = x_resumed.iter().map(|x| 2.0 * (x - 3.0)).collect();
                resumed.step(0, &mut x_resumed, &g);
            }
            let snapshot = resumed.export_state();
            let mut fresh = spec.build();
            fresh.import_state(&snapshot).unwrap();
            for _ in 0..10 {
                let g: Vec<f32> = x_straight.iter().map(|x| 2.0 * (x - 3.0)).collect();
                straight.step(0, &mut x_straight, &g);
                let g: Vec<f32> = x_resumed.iter().map(|x| 2.0 * (x - 3.0)).collect();
                fresh.step(0, &mut x_resumed, &g);
            }
            assert_eq!(x_straight, x_resumed, "{spec:?}");
        }
    }

    #[test]
    fn state_import_rejects_kind_mismatch() {
        let mut sgd = Sgd::new(0.1, 0.9);
        let adam_state = Adam::new(0.1).export_state();
        assert!(sgd.import_state(&adam_state).is_err());
        let mut adam = Adam::new(0.1);
        let sgd_state = Sgd::new(0.1, 0.9).export_state();
        assert!(adam.import_state(&sgd_state).is_err());
    }
}
