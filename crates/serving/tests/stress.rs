//! Concurrency stress: several producer threads submit through
//! backpressure while a delayed `initiate_shutdown()` races the
//! workers popping and serving requests. A watchdog bounds the whole run so
//! a deadlock fails the test instead of hanging CI, and conservation
//! invariants prove that no accepted request is dropped and no request
//! completes twice, at worker counts 1, 2 and 8.

mod common;

use common::sample;
use retina_core::retina::{Retina, RetinaConfig};
use retina_core::snapshot::Snapshot;
use serving::{PredictRequest, PredictionServer, ServerConfig, SubmitError, Ticket};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

const D_USER: usize = 8;
const PRODUCERS: u64 = 4;
const PER_PRODUCER: u64 = 50;
/// Pause before resubmitting a request the full queue rejected.
const RETRY_PAUSE: Duration = Duration::from_micros(200);

fn snapshot() -> Snapshot {
    Snapshot::capture(&Retina::new(D_USER, RetinaConfig::static_default()))
}

fn request(id: u64) -> PredictRequest {
    PredictRequest {
        id,
        sample: sample(4, D_USER, 50, 2, id),
    }
}

/// Run `f` on its own thread and fail loudly if it has not finished
/// within `limit` — a hung condvar or lost wakeup must surface as a
/// test failure, not a CI timeout.
fn with_watchdog<F>(limit: Duration, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        f();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(limit) {
        // Finished (or panicked — join propagates the panic either way).
        Ok(()) | Err(mpsc::RecvTimeoutError::Disconnected) => {
            worker.join().expect("stress body panicked")
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("stress run exceeded the {limit:?} watchdog — likely deadlock")
        }
    }
}

/// One producer: submit its id range, retrying `QueueFull` after
/// [`RETRY_PAUSE`] and abandoning ids once shutdown is observed. Returns the tickets it got in, waited to completion.
fn produce(
    server: &PredictionServer,
    range: std::ops::Range<u64>,
    gave_up: &AtomicU64,
) -> Vec<(u64, serving::Prediction)> {
    let mut tickets: Vec<(u64, Ticket)> = Vec::new();
    'ids: for id in range {
        loop {
            match server.submit(request(id)) {
                Ok(t) => {
                    tickets.push((id, t));
                    break;
                }
                Err(SubmitError::QueueFull { .. }) => thread::sleep(RETRY_PAUSE),
                Err(SubmitError::ShutDown) => {
                    gave_up.fetch_add(1, Ordering::Relaxed);
                    continue 'ids;
                }
                Err(e) => panic!("unexpected rejection: {e}"),
            }
        }
    }
    tickets.into_iter().map(|(id, t)| (id, t.wait())).collect()
}

/// The stress body: producers × bounded queue, with shutdown initiated
/// mid-flight from a separate thread.
fn stress(workers: usize) {
    let server = Arc::new(
        PredictionServer::start(
            &snapshot(),
            ServerConfig {
                workers,
                queue_capacity: 4,
                ..ServerConfig::default()
            },
        )
        .expect("start"),
    );
    let gave_up = Arc::new(AtomicU64::new(0));

    // Delayed shutdown, racing the workers: by the time it lands, some
    // requests are queued, some mid-forward, some still unsubmitted.
    let closer = {
        let server = Arc::clone(&server);
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(3));
            server.initiate_shutdown();
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let server = Arc::clone(&server);
            let gave_up = Arc::clone(&gave_up);
            thread::spawn(move || {
                produce(&server, p * PER_PRODUCER..(p + 1) * PER_PRODUCER, &gave_up)
            })
        })
        .collect();

    let mut results: Vec<(u64, serving::Prediction)> = Vec::new();
    for p in producers {
        results.extend(p.join().expect("producer panicked"));
    }
    closer.join().expect("closer panicked");

    // Exactly-once: every accepted ticket resolved, to its own request,
    // and no id surfaced twice.
    let mut seen = BTreeSet::new();
    for (id, prediction) in &results {
        assert_eq!(prediction.id, *id, "ticket resolved to a foreign request");
        assert_eq!(prediction.probabilities.len(), 4);
        assert!(seen.insert(*id), "request {id} completed twice");
    }

    // Conservation: every id was accepted-and-completed or abandoned at
    // shutdown; the server's books agree with the callers'.
    let accepted = results.len() as u64;
    assert_eq!(
        accepted + gave_up.load(Ordering::Relaxed),
        PRODUCERS * PER_PRODUCER,
        "requests vanished without an observed rejection"
    );
    let server = Arc::try_unwrap(server)
        .ok()
        .expect("all server clones joined");
    let stats = server.shutdown();
    assert_eq!(stats.accepted, accepted, "server accepted-count disagrees");
    assert_eq!(stats.completed, accepted, "accepted work went missing");
}

#[test]
fn shutdown_races_one_worker() {
    with_watchdog(Duration::from_secs(30), || stress(1));
}

#[test]
fn shutdown_races_two_workers() {
    with_watchdog(Duration::from_secs(30), || stress(2));
}

#[test]
fn shutdown_races_eight_workers() {
    with_watchdog(Duration::from_secs(30), || stress(8));
}
