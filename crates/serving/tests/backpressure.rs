//! Backpressure and shutdown semantics: rejections are explicit and
//! carry queue-depth information, accepted work is never dropped, and
//! shutdown drains gracefully.

mod common;

use common::sample;
use retina_core::retina::{Retina, RetinaConfig};
use retina_core::snapshot::Snapshot;
use serving::{PredictRequest, PredictionServer, ServerConfig, SubmitError, Ticket};
use std::time::Duration;

const D_USER: usize = 8;
/// Candidate rows in the blocker request: enough that its forward pass
/// outlasts the handful of submissions a test makes behind it.
const BLOCKER_ROWS: usize = 20_000;
const BLOCKER_ID: u64 = 1_000;
/// Pause before resubmitting a request the full queue rejected.
const RETRY_PAUSE: Duration = Duration::from_micros(100);

fn snapshot() -> Snapshot {
    Snapshot::capture(&Retina::new(D_USER, RetinaConfig::static_default()))
}

fn request(id: u64) -> PredictRequest {
    PredictRequest {
        id,
        sample: sample(4, D_USER, 50, 2, id),
    }
}

/// A server with a single worker.
fn one_worker_server(queue_capacity: usize) -> PredictionServer {
    PredictionServer::start(
        &snapshot(),
        ServerConfig {
            workers: 1,
            queue_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("start")
}

/// Submit one large request and wait until the worker has taken it off
/// the queue. The worker is then busy in the blocker's forward pass, so
/// the submissions that follow pile up in the bounded queue.
fn occupy_worker(server: &PredictionServer) -> Ticket {
    let ticket = server
        .submit(PredictRequest {
            id: BLOCKER_ID,
            sample: sample(BLOCKER_ROWS, D_USER, 50, 2, BLOCKER_ID),
        })
        .expect("blocker accepted");
    while server.queue_depth() > 0 {
        std::thread::yield_now();
    }
    ticket
}

#[test]
fn queue_full_rejection_carries_depth_and_capacity() {
    let server = one_worker_server(4);
    let blocker = occupy_worker(&server);
    let mut tickets = Vec::new();
    // Fill the queue. The worker is still inside the blocker, so it
    // drains nothing and all submissions queue.
    for id in 0..4 {
        tickets.push(server.submit(request(id)).expect("within capacity"));
    }
    match server.submit(request(99)) {
        Err(SubmitError::QueueFull { depth, capacity }) => {
            assert_eq!(capacity, 4);
            assert_eq!(depth, 4, "depth should equal capacity at rejection");
        }
        Ok(_) => panic!("submission beyond capacity was accepted"),
        Err(e) => panic!("wrong rejection: {e}"),
    }
    // The blocker plus the four queued requests.
    let stats = server.stats();
    assert_eq!(stats.accepted, 5);
    assert_eq!(stats.rejected, 1);

    // Graceful drain: shutdown arrives with four requests still queued,
    // and the worker must fulfil every one of them before exiting.
    let final_stats = server.shutdown();
    assert_eq!(final_stats.accepted, 5);
    assert_eq!(final_stats.completed, 5, "shutdown dropped queued work");
    assert_eq!(blocker.wait().id, BLOCKER_ID);
    for (i, t) in tickets.into_iter().enumerate() {
        let p = t.wait();
        assert_eq!(p.id, i as u64);
        assert_eq!(p.probabilities.len(), 4);
    }
}

#[test]
fn no_silent_drops_under_sustained_backpressure() {
    let server = PredictionServer::start(
        &snapshot(),
        ServerConfig {
            workers: 2,
            queue_capacity: 3,
            ..ServerConfig::default()
        },
    )
    .expect("start");
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    let mut gave_up = 0u64;
    for id in 0..200 {
        match server.submit(request(id)) {
            Ok(t) => tickets.push((id, t)),
            Err(SubmitError::QueueFull { .. }) => {
                rejected += 1;
                // Resubmit once after a pause; give up on a second
                // rejection (the caller owns retry policy).
                std::thread::sleep(RETRY_PAUSE);
                match server.submit(request(id)) {
                    Ok(t) => tickets.push((id, t)),
                    Err(_) => {
                        rejected += 1;
                        gave_up += 1;
                    }
                }
            }
            Err(e) => panic!("unexpected rejection: {e}"),
        }
    }
    let accepted = tickets.len() as u64;
    // Conservation: every request was either accepted or given up on,
    // and every rejection was observed by the caller — nothing vanished.
    assert_eq!(accepted + gave_up, 200);
    // Every accepted ticket resolves to its own request id.
    for (id, t) in tickets {
        assert_eq!(t.wait().id, id);
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, accepted);
    assert_eq!(stats.completed, accepted, "accepted work went missing");
    assert_eq!(stats.rejected, rejected);
}

#[test]
fn shutdown_rejects_new_submissions() {
    let server = one_worker_server(8);
    let t = server.submit(request(0)).expect("accepted before shutdown");
    server.initiate_shutdown();
    match server.submit(request(1)) {
        Err(SubmitError::ShutDown) => {}
        Ok(_) => panic!("accepted after shutdown"),
        Err(e) => panic!("wrong rejection: {e}"),
    }
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(t.wait().id, 0);
}

#[test]
fn invalid_requests_are_rejected_not_panicked() {
    let server = one_worker_server(8);
    // Wrong feature width.
    let mut bad = request(0);
    bad.sample.user_rows[0].push(1.0);
    match server.submit(bad) {
        Err(SubmitError::InvalidRequest { .. }) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
    // No candidates at all.
    let mut empty = request(1);
    empty.sample.user_rows.clear();
    match server.submit(empty) {
        Err(SubmitError::InvalidRequest { .. }) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
    // Wrong Doc2Vec width on an exogenous model.
    let mut bad_d2v = request(2);
    bad_d2v.sample.tweet_d2v.pop();
    match server.submit(bad_d2v) {
        Err(SubmitError::InvalidRequest { .. }) => {}
        other => panic!("expected InvalidRequest, got {:?}", other.err()),
    }
    assert_eq!(server.stats().rejected, 3);
    let stats = server.shutdown();
    assert_eq!(stats.accepted, 0);
    assert_eq!(stats.completed, 0);
}

#[test]
fn drop_performs_graceful_drain() {
    let (blocker, tickets): (Ticket, Vec<Ticket>) = {
        let server = one_worker_server(8);
        let blocker = occupy_worker(&server);
        let tickets = (0..5)
            .map(|id| server.submit(request(id)).expect("submit"))
            .collect();
        (blocker, tickets)
        // `server` dropped here with five requests queued: drain + join.
    };
    assert_eq!(blocker.wait().id, BLOCKER_ID);
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait().id, i as u64);
    }
}
