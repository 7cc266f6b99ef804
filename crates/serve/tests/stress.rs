//! Concurrency stress tests for the serving tier: many producers against
//! a deliberately small queue, verifying conservation (no request lost
//! or double-completed), backpressure accounting that matches the obs
//! counters, and a clean shutdown drain. Most run on a one-shard
//! [`Router`], the plain batched server.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use neural::plan::FrozenPlan;
use neural::spec::{LayerSpec, NetworkSpec};
use neural::Activation;
use serve::{ModelRegistry, Request, Router, RouterConfig, ServeConfig, SubmitError, Ticket};

const INPUT: usize = 4;
const OUTPUT: usize = 8;

/// A dense plan whose output is constantly `marker` — cheap to execute
/// and self-identifying.
fn marker_plan(marker: f32) -> Arc<FrozenPlan> {
    let spec = NetworkSpec::new(INPUT).layer(LayerSpec::Dense {
        units: OUTPUT,
        activation: Activation::Linear,
    });
    let weights = vec![vec![vec![0.0; INPUT * OUTPUT], vec![marker; OUTPUT]]];
    Arc::new(FrozenPlan::from_spec_weights("marker", &spec, &weights).expect("marker plan"))
}

fn registry() -> Arc<ModelRegistry> {
    let registry = Arc::new(ModelRegistry::new());
    registry.publish_plan("m", 1, marker_plan(1.5));
    registry
}

fn one_shard(engine: ServeConfig) -> Router {
    Router::start(
        registry(),
        RouterConfig {
            shards: 1,
            engine,
            ..RouterConfig::default()
        },
    )
    .expect("start router")
}

#[test]
fn producers_against_tiny_queue_lose_nothing() {
    // The obs collector is installed for the whole run so the shard's
    // backpressure counter can be cross-checked against its report.
    let obs_guard = obs::install(obs::Collector::new());

    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 300;
    let router = Arc::new(one_shard(ServeConfig {
        workers: 2,
        queue_capacity: 4, // tiny on purpose: constant contention
        max_batch: 4,
        max_linger: Duration::from_micros(50),
        default_deadline: Duration::from_secs(60),
    }));

    let accepted = Arc::new(AtomicU64::new(0));
    let rejected = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let mut producers = Vec::new();
    for p in 0..PRODUCERS {
        let router = Arc::clone(&router);
        let accepted = Arc::clone(&accepted);
        let rejected = Arc::clone(&rejected);
        let completed = Arc::clone(&completed);
        producers.push(std::thread::spawn(move || {
            let input = vec![p as f32; INPUT];
            let mut tickets: Vec<Ticket> = Vec::new();
            for _ in 0..PER_PRODUCER {
                match router.submit(Request::new("m", input.clone())) {
                    Ok(ticket) => {
                        accepted.fetch_add(1, Ordering::SeqCst);
                        tickets.push(ticket);
                    }
                    Err(SubmitError::QueueFull { capacity }) => {
                        assert_eq!(capacity, 4);
                        rejected.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(other) => panic!("unexpected submit error: {other:?}"),
                }
            }
            for ticket in tickets {
                let prediction = ticket.wait().expect("accepted request must complete");
                assert_eq!(prediction.output, vec![1.5f32; OUTPUT]);
                completed.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for producer in producers {
        producer.join().expect("producer thread");
    }

    let accepted = accepted.load(Ordering::SeqCst);
    let rejected = rejected.load(Ordering::SeqCst);
    let completed = completed.load(Ordering::SeqCst);

    // Conservation: every submission was either accepted or rejected, and
    // every accepted request completed exactly once (Ticket::wait
    // consumes the ticket, so a double completion would either panic a
    // producer or desynchronize these counts).
    assert_eq!(accepted + rejected, (PRODUCERS * PER_PRODUCER) as u64);
    assert_eq!(completed, accepted);
    assert!(accepted > 0, "some requests must get through");
    assert!(rejected > 0, "a 4-deep queue under 8 producers must bounce");

    // The tier's report agrees with the ground-truth counts...
    let report = router.report().total;
    assert_eq!(report.requests_submitted, accepted);
    assert_eq!(report.requests_rejected, rejected);
    assert_eq!(report.requests_completed, completed);
    assert_eq!(report.requests_failed, 0);
    assert_eq!(report.requests_timed_out, 0);
    assert!(report.queue_depth_high_water <= 4);

    // ...and so does the global obs counter fed by the same events.
    assert_eq!(
        obs_guard
            .collector()
            .counter("serve.rejected")
            .get(),
        rejected,
        "obs backpressure counter must match QueueFull accounting"
    );

    if let Ok(router) = Arc::try_unwrap(router) {
        router.shutdown();
    }
}

#[test]
fn shutdown_drains_without_losing_outstanding_tickets() {
    // Installing serializes this test with the other obs-observing tests
    // in this binary so their counter assertions see only their own runs.
    let _obs_guard = obs::install(obs::Collector::new());
    let router = one_shard(ServeConfig {
        workers: 2,
        queue_capacity: 1024,
        max_batch: 8,
        max_linger: Duration::from_micros(50),
        default_deadline: Duration::from_secs(60),
    });

    let tickets: Vec<Ticket> = (0..200)
        .map(|_| {
            router
                .submit(Request::new("m", vec![0.25; INPUT]))
                .expect("queue is large enough")
        })
        .collect();
    // Shut down with requests still in flight: workers drain the queue
    // before exiting, so every ticket must resolve — served normally or
    // (only if a worker never saw it) with a clean ShuttingDown.
    router.shutdown();

    let mut served = 0usize;
    for ticket in tickets {
        match ticket.wait() {
            Ok(prediction) => {
                assert_eq!(prediction.output, vec![1.5f32; OUTPUT]);
                served += 1;
            }
            Err(serve::ServeError::ShuttingDown) => {}
            Err(other) => panic!("unexpected completion: {other:?}"),
        }
    }
    assert_eq!(served, 200, "a graceful shutdown drains the full queue");
}

#[test]
fn batched_scratch_is_reused_with_zero_hot_path_allocations_after_warmup() {
    // The per-worker scratch arena grows only while batches are still
    // larger than anything the worker has seen; `Scratch::ensure` bumps
    // the `neural.scratch_grow` obs counter on every growth. After a
    // warm-up at the full batch size, steady-state serving must never
    // grow again — that counter staying flat is the observable proof of
    // "zero allocations on the batched hot path". The worker serves an
    // LSTM plan too, whose row table and state live in the same arena.
    let obs_guard = obs::install(obs::Collector::new());

    const MAX_BATCH: usize = 8;
    const TIMESTEPS: usize = 5;
    const FEATURES: usize = 6;
    let lstm_spec = NetworkSpec::new(TIMESTEPS * FEATURES).layer(LayerSpec::Lstm {
        units: 4,
        timesteps: TIMESTEPS,
    });
    let mut lstm_net = lstm_spec.build(2).expect("valid spec");
    let lstm_plan = FrozenPlan::from_spec_weights("lstm", &lstm_spec, &lstm_net.export_weights())
        .expect("lstm plan");
    // Plateau windows: each row repeated, as the NMR traffic does.
    let lstm_inputs: Vec<Vec<f32>> = (0..MAX_BATCH)
        .map(|i| {
            (0..TIMESTEPS * FEATURES)
                .map(|k| ((i * 3 + k / (2 * FEATURES)) as f32 * 0.7).sin())
                .collect()
        })
        .collect();
    let lstm_want: Vec<Vec<f32>> = lstm_inputs.iter().map(|x| lstm_net.predict(x)).collect();
    let registry = registry();
    registry.publish_plan("lstm", 1, Arc::new(lstm_plan));
    let router = Router::start(
        registry,
        RouterConfig {
            shards: 1,
            engine: ServeConfig {
                workers: 1, // a single worker so one arena sees every batch
                queue_capacity: 256,
                max_batch: MAX_BATCH,
                // Generous linger so a burst of MAX_BATCH submissions
                // coalesces into one full-width batch.
                max_linger: Duration::from_millis(5),
                default_deadline: Duration::from_secs(60),
            },
            ..RouterConfig::default()
        },
    )
    .expect("start router");

    let wave = |router: &Router| {
        let tickets: Vec<Ticket> = (0..MAX_BATCH)
            .map(|_| {
                router
                    .submit(Request::new("m", vec![0.5; INPUT]))
                    .expect("queue has room")
            })
            .collect();
        for ticket in tickets {
            let prediction = ticket.wait().expect("request completes");
            assert_eq!(prediction.output, vec![1.5f32; OUTPUT]);
        }
        let tickets: Vec<Ticket> = lstm_inputs
            .iter()
            .map(|x| {
                router
                    .submit(Request::new("lstm", x.clone()))
                    .expect("queue has room")
            })
            .collect();
        for (ticket, want) in tickets.into_iter().zip(&lstm_want) {
            let prediction = ticket.wait().expect("request completes");
            assert_eq!(&prediction.output, want);
        }
    };

    // Warm-up: enough full-width waves that the arena has covered the
    // largest batch the worker will ever form.
    for _ in 0..10 {
        wave(&router);
    }
    let grows_after_warmup = obs_guard.collector().counter("neural.scratch_grow").get();
    assert!(
        grows_after_warmup >= 1,
        "warm-up must have grown the scratch arena at least once"
    );

    // Steady state: many more waves, zero further growth.
    for _ in 0..30 {
        wave(&router);
    }
    let grows_after_steady = obs_guard.collector().counter("neural.scratch_grow").get();
    assert_eq!(
        grows_after_steady, grows_after_warmup,
        "steady-state batches must reuse the warm scratch arena, not reallocate"
    );
    router.shutdown();
}

#[test]
fn worker_panic_under_batched_backend_conserves_every_request() {
    // The chaos suite proves conservation for the serving tier in
    // general; this pins it specifically for the default batched
    // backend: a worker that panics mid-run abandons its scratch arena,
    // the replacement worker builds a fresh one, and no request is lost
    // or double-completed across the failover.
    let _obs_guard = obs::install(obs::Collector::new());

    let registry = Arc::new(serve::ModelRegistry::new());
    registry.publish_plan("m", 1, marker_plan(2.5));
    let faults = Arc::new(faultsim::FaultPlan::new().with_worker_panic(0, 1));
    let router = serve::Router::start_with_faults(
        registry,
        serve::RouterConfig {
            shards: 2,
            engine: ServeConfig {
                workers: 1,
                max_batch: 4,
                max_linger: Duration::from_micros(200),
                default_deadline: Duration::from_secs(2),
                ..ServeConfig::default()
            },
            supervisor: serve::SupervisorConfig {
                tick: Duration::from_millis(5),
                stall_deadline: Duration::from_millis(60),
                restart_backoff_base: Duration::from_millis(10),
                max_restart_backoff: Duration::from_millis(100),
                ..serve::SupervisorConfig::default()
            },
            ..serve::RouterConfig::default()
        },
        Some(faults),
    )
    .expect("start router");

    let tickets: Vec<Ticket> = (0..100)
        .map(|_| router.submit(Request::new("m", vec![0.0; INPUT])).unwrap())
        .collect();
    let mut completed = 0u64;
    let mut crashed = 0u64;
    for ticket in tickets {
        match ticket.wait() {
            Ok(prediction) => {
                // Zero weights + marker bias: exact even on the batched
                // backend, so a torn output would be caught here.
                assert_eq!(prediction.output, vec![2.5f32; OUTPUT]);
                completed += 1;
            }
            Err(serve::ServeError::WorkerCrashed) => crashed += 1,
            Err(other) => panic!("unexpected completion: {other:?}"),
        }
    }
    assert_eq!(completed + crashed, 100, "every ticket reaches one terminal");
    assert!(crashed <= 4, "at most the panicked batch may crash, got {crashed}");

    // Conservation closes on the router's own accounting too.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let total = router.report().total;
        let terminal = total.requests_completed
            + total.requests_failed
            + total.requests_timed_out
            + total.requests_drained;
        if terminal == total.requests_submitted {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tier never quiesced: {:?}",
            router.report()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    assert!(
        router.report().failovers >= 1,
        "supervisor never failed the panicked shard over"
    );
    router.shutdown();
}
