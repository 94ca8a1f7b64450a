//! Concurrency model tests for `parallel::Pool`, the `SpmvServer`
//! wait/abandon protocol and its plan-builder handoff, run under `loom`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p gust --test loom
//! ```
//!
//! The models are written against the loom API (`loom::model`,
//! `loom::sync`), so they run unchanged whether `loom` resolves to the
//! real model checker (exhaustive interleaving exploration) or to the
//! workspace shim (`shims/loom`, seeded stress iterations for offline
//! builds — tune with `LOOM_SHIM_ITERS`).

#![cfg(loom)]

use gust::prelude::*;
use gust::serve::{Acquired, ScheduleRegistry, ServeConfig, SpmvServer};
use gust_sparse::gen;
use gust_sparse::CsrMatrix;
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use std::time::Duration;

/// Every task index runs exactly once, and `run` does not return until
/// all of them have (completion counting): the post-run counter reads
/// need no synchronization beyond `run` itself.
#[test]
fn pool_runs_every_task_exactly_once() {
    loom::model(|| {
        const TASKS: usize = 16;
        let hits: Arc<Vec<AtomicUsize>> =
            Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect());
        let hits2 = Arc::clone(&hits);
        Pool::global().run(4, TASKS, move |t| {
            hits2[t].fetch_add(1, Ordering::Relaxed);
        });
        for (t, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "task {t} ran a wrong number of times"
            );
        }
    });
}

/// A run nested inside a pool task completes inline instead of
/// deadlocking on the worker pool it is already running on.
#[test]
fn pool_nested_runs_complete_inline() {
    loom::model(|| {
        let total = Arc::new(AtomicUsize::new(0));
        let outer = Arc::clone(&total);
        Pool::global().run(2, 2, move |_| {
            let inner = Arc::clone(&outer);
            Pool::global().run(2, 3, move |_| {
                inner.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 2 * 3);
    });
}

/// A panicking task propagates to the caller of `run`, and the pool
/// keeps serving afterwards (workers survive the contained panic).
#[test]
fn pool_task_panics_propagate_and_pool_survives() {
    loom::model(|| {
        let result = std::panic::catch_unwind(|| {
            Pool::global().run(2, 4, |t| {
                if t == 2 {
                    panic!("injected task panic");
                }
            });
        });
        assert!(result.is_err(), "task panic must reach the run caller");

        let done = Arc::new(AtomicUsize::new(0));
        let done2 = Arc::clone(&done);
        Pool::global().run(2, 4, move |_| {
            done2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 4);
    });
}

fn serving_pair() -> (SpmvServer, CsrMatrix) {
    let matrix = CsrMatrix::from(&gen::uniform(12, 12, 40, 7));
    let registry = std::sync::Arc::new(ScheduleRegistry::new(Gust::new(GustConfig::new(4))));
    let server = SpmvServer::start(registry, ServeConfig::default());
    (server, matrix)
}

/// Wait side of the protocol: a submitted request's ticket resolves —
/// the dispatcher thread races the client's wait, and whichever way the
/// interleaving falls the client gets exactly one outcome.
#[test]
fn server_ticket_wait_always_resolves() {
    loom::model(|| {
        let (server, matrix) = serving_pair();
        let key = server.register(&matrix);
        let x: Vec<f32> = (0..matrix.cols()).map(|i| i as f32).collect();
        let resp = server
            .call(0, key, x.clone())
            .expect("in-deadline call succeeds");
        assert_eq!(resp.output.len(), matrix.rows());
    });
}

/// Abandon side: a zero deadline races the dispatcher. Whether the
/// client abandons first (DeadlineExceeded, the dispatcher's late
/// completion is discarded) or the dispatcher wins, the accounting
/// invariant `admitted == completed + deadline_missed + stopped` must
/// hold once the server has drained.
#[test]
fn server_wait_abandon_protocol_accounts_every_request() {
    loom::model(|| {
        let (mut server, matrix) = serving_pair();
        let key = server.register(&matrix);
        let x: Vec<f32> = (0..matrix.cols()).map(|i| i as f32).collect();

        let ticket = server
            .submit(0, key, x.clone(), Some(Duration::ZERO))
            .expect("admission succeeds");
        match ticket.wait() {
            Ok(resp) => assert_eq!(resp.output.len(), matrix.rows()),
            Err(GustError::DeadlineExceeded { .. }) => {}
            Err(other) => panic!("unexpected wait outcome: {other}"),
        }

        server.stop();
        let stats = server.stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(
            stats.admitted,
            stats.completed + stats.deadline_missed + stats.stopped,
            "drained server must account every admitted request: {stats:?}"
        );
    });
}

/// Builder handoff: a cold request hands the plan to the server's
/// builder thread, whose memo publish races a blocking `acquire` of the
/// same key on another thread. Exactly one load or build happens, and
/// both sides end up with the same plan.
#[test]
fn builder_publish_races_a_blocking_acquire() {
    loom::model(|| {
        let (mut server, matrix) = serving_pair();
        let registry = std::sync::Arc::clone(server.registry());
        let key = server.register(&matrix);
        let racer = {
            let registry = std::sync::Arc::clone(&registry);
            loom::thread::spawn(move || registry.acquire(key))
        };
        let x: Vec<f32> = (0..matrix.cols()).map(|i| i as f32).collect();
        let resp = server.call(0, key, x).expect("in-deadline call succeeds");
        assert_eq!(resp.output.len(), matrix.rows());
        let raced = racer.join().expect("racer thread");
        // Joins the builder: whatever it was handed has finished.
        server.stop();

        let Ok(Acquired::Scheduled(raced)) = raced else {
            panic!("a clean build is scheduled");
        };
        let Ok(Some(Acquired::Scheduled(memo))) = registry.lookup(key) else {
            panic!("the plan is memoized");
        };
        assert!(
            std::sync::Arc::ptr_eq(&raced, &memo),
            "both sides must observe the one published plan"
        );
        let stats = registry.stats();
        assert_eq!(
            stats.rebuilds + stats.disk_loads,
            1,
            "one key, one build: {stats:?}"
        );
        let served = server.stats();
        assert!(served.cold_responses <= served.degraded_responses);
    });
}

/// Shutdown with plan builds queued or in flight: `stop` returns, and
/// both server threads are joined — neither still holds the registry
/// once the server is dropped.
#[test]
fn stop_joins_dispatcher_and_builder_with_builds_pending() {
    loom::model(|| {
        let registry = std::sync::Arc::new(ScheduleRegistry::new(Gust::new(GustConfig::new(4))));
        let mut server =
            SpmvServer::start(std::sync::Arc::clone(&registry), ServeConfig::default());
        let tickets: Vec<_> = (0..3)
            .map(|seed| {
                let matrix = CsrMatrix::from(&gen::uniform(12, 12, 40, 20 + seed));
                let key = server.register(&matrix);
                let x: Vec<f32> = (0..matrix.cols()).map(|i| i as f32).collect();
                server.submit(0, key, x, None).expect("admission succeeds")
            })
            .collect();
        server.stop();
        for ticket in tickets {
            ticket.wait().expect("admitted requests are answered");
        }
        let stats = registry.stats();
        assert!(stats.rebuilds <= 3, "{stats:?}");
        drop(server);
        assert_eq!(
            std::sync::Arc::strong_count(&registry),
            1,
            "a server thread outlived stop"
        );
    });
}
