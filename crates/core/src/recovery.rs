//! Retry/backoff machinery for pipeline stages.
//!
//! The paper's Tool 4 runs "without user interaction" until a quality
//! gate is met — on real hardware that means surviving transient stage
//! failures (a flaky measurement campaign, a failed characterization
//! fit). [`StageRunner`] wraps each pipeline stage with a bounded retry
//! loop and exponential backoff, records every failed attempt with its
//! stage name, and can replay failures deterministically from a
//! [`faultsim::FaultPlan`] so the recovery path is tested rather than
//! hoped for.
//!
//! The MS pipeline's one stage sequence,
//! [`crate::pipeline::ms::MsPipeline::run_with_recovery`], runs on this
//! runner; [`crate::pipeline::ms::MsPipeline::run`] is that sequence with
//! a one-attempt runner and no fault plan. The sequence adds graceful
//! degradation: when the calibration + characterization stage keeps
//! failing even across retries, it falls back to a smaller calibration
//! campaign (fewer samples per mixture — walking down Figure 6's
//! sample-count axis) instead of aborting.

use std::sync::Arc;
use std::time::Duration;

use faultsim::FaultPlan;

use crate::PipelineError;

/// Bounded-retry policy with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per stage, including the first (≥ 1).
    pub max_attempts: usize,
    /// Delay before the first retry, in milliseconds. Zero (the default
    /// in tests) skips sleeping entirely.
    pub base_delay_ms: u64,
    /// Multiplier applied to the delay after each failed attempt.
    pub backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_delay_ms: 0,
            backoff: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `retry` (1-based).
    fn delay(&self, retry: usize) -> Duration {
        let ms = self.base_delay_ms as f64 * self.backoff.powi(retry as i32 - 1);
        Duration::from_millis(ms as u64)
    }
}

/// One failed stage attempt, for post-mortem inspection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageAttempt {
    /// The stage that failed.
    pub stage: String,
    /// Attempt number (1-based).
    pub attempt: usize,
    /// Rendered error of that attempt.
    pub error: String,
}

/// Runs pipeline stages under a [`RetryPolicy`], logging failures.
#[derive(Debug, Default)]
pub struct StageRunner {
    policy: RetryPolicy,
    plan: Option<Arc<FaultPlan>>,
    log: Vec<StageAttempt>,
}

impl StageRunner {
    /// A runner with the given policy.
    pub fn new(policy: RetryPolicy) -> Self {
        Self {
            policy,
            plan: None,
            log: Vec::new(),
        }
    }

    /// Attaches a fault plan: stages scheduled there fail with
    /// [`PipelineError::Injected`] before their body runs.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The fault plan, if any (shared with e.g. the training guard).
    pub fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        self.plan.as_ref()
    }

    /// Every failed attempt so far, across all stages.
    pub fn log(&self) -> &[StageAttempt] {
        &self.log
    }

    /// Runs `stage`, retrying up to the policy's attempt budget with
    /// exponential backoff between attempts.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stage`] wrapping the final attempt's
    /// error once the budget is exhausted.
    pub fn run<T>(
        &mut self,
        stage: &str,
        mut body: impl FnMut() -> Result<T, PipelineError>,
    ) -> Result<T, PipelineError> {
        let max_attempts = self.policy.max_attempts.max(1);
        let mut attempt = 1;
        let _stage_span = obs::span(&format!("pipeline.stage.{stage}"));
        loop {
            let injected = self
                .plan
                .as_deref()
                .is_some_and(|p| p.fail_stage(stage));
            let result = if injected {
                Err(PipelineError::Injected(stage.to_string()))
            } else {
                body()
            };
            match result {
                Ok(value) => return Ok(value),
                Err(error) => {
                    self.log.push(StageAttempt {
                        stage: stage.to_string(),
                        attempt,
                        error: error.to_string(),
                    });
                    if attempt >= max_attempts {
                        return Err(PipelineError::Stage {
                            stage: stage.to_string(),
                            attempts: attempt,
                            source: Box::new(error),
                        });
                    }
                    obs::counter_add("pipeline.stage.retries", 1);
                    let delay = self.policy.delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_try_success_leaves_no_log() {
        let mut runner = StageRunner::new(RetryPolicy::default());
        let out = runner.run("simulate", || Ok(7)).unwrap();
        assert_eq!(out, 7);
        assert!(runner.log().is_empty());
    }

    #[test]
    fn transient_failure_is_retried() {
        let mut runner = StageRunner::new(RetryPolicy::default());
        let mut calls = 0;
        let out = runner
            .run("characterize", || {
                calls += 1;
                if calls < 3 {
                    Err(PipelineError::InvalidConfig("flaky".into()))
                } else {
                    Ok("done")
                }
            })
            .unwrap();
        assert_eq!(out, "done");
        assert_eq!(calls, 3);
        assert_eq!(runner.log().len(), 2);
        assert_eq!(runner.log()[0].attempt, 1);
        assert_eq!(runner.log()[1].attempt, 2);
    }

    #[test]
    fn exhausted_budget_wraps_last_error_with_stage_context() {
        let mut runner = StageRunner::new(RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        });
        let err = runner
            .run::<()>("train", || Err(PipelineError::InvalidConfig("boom".into())))
            .unwrap_err();
        match &err {
            PipelineError::Stage {
                stage,
                attempts,
                source,
            } => {
                assert_eq!(stage, "train");
                assert_eq!(*attempts, 2);
                assert!(matches!(**source, PipelineError::InvalidConfig(_)));
            }
            other => panic!("expected Stage error, got {other:?}"),
        }
        assert!(err.to_string().contains("after 2 attempts"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn injected_faults_consume_attempts_then_stage_succeeds() {
        let plan = Arc::new(FaultPlan::new().with_stage_failure("simulate", 2));
        let mut runner =
            StageRunner::new(RetryPolicy::default()).with_fault_plan(Arc::clone(&plan));
        let mut calls = 0;
        let out = runner
            .run("simulate", || {
                calls += 1;
                Ok(1)
            })
            .unwrap();
        assert_eq!(out, 1);
        // Body only runs once the injected failures are spent.
        assert_eq!(calls, 1);
        assert_eq!(runner.log().len(), 2);
        assert!(runner.log()[0].error.contains("injected"));
        assert_eq!(plan.events().len(), 2);
    }

    #[test]
    fn backoff_delays_grow_geometrically() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 10,
            backoff: 3.0,
        };
        assert_eq!(policy.delay(1), Duration::from_millis(10));
        assert_eq!(policy.delay(2), Duration::from_millis(30));
        assert_eq!(policy.delay(3), Duration::from_millis(90));
    }
}
