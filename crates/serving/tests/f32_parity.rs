//! End-to-end parity contract for the f32 serving tier.
//!
//! Two guarantees, both against the committed golden snapshot fixture:
//!
//! 1. **Tolerance vs f64** — an f32 replica's probabilities match the
//!    f64 replica's within `F32_TOLERANCE` (absolute, on probabilities
//!    in `[0, 1]`). The bound is generous versus the observed error
//!    (~1e-6 for this model) because it must hold for any realistic
//!    weight scale, not just the fixture; DESIGN.md §13 documents the
//!    derivation.
//! 2. **Bit-identity across scheduling** — for a fixed request, the f32
//!    tier's answer is byte-identical regardless of worker count or
//!    submission order. Each sample runs the same single-sample
//!    forward, and the f32 kernels are bit-identical across thread
//!    counts and the `simd` feature gate (pinned in
//!    `nn/tests/kernel_parity.rs`).

mod common;

use common::sample;
use retina_core::retina::PackedSample;
use retina_core::snapshot::Snapshot;
use serving::{Precision, PredictRequest, PredictionServer, ServerConfig};
use std::path::PathBuf;

const D_USER: usize = 6;
/// Absolute probability tolerance of the f32 tier vs f64.
const F32_TOLERANCE: f64 = 1e-3;

fn snapshot() -> Snapshot {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden.snap");
    Snapshot::load(&path).expect("golden fixture decodes")
}

fn probes() -> Vec<PackedSample> {
    (0..8).map(|i| sample(5, D_USER, 50, 3, 7100 + i)).collect()
}

/// Score every probe through a server in the given precision, with the
/// requests submitted in `order`; returns probabilities indexed by
/// probe id.
fn serve_all(
    snap: &Snapshot,
    precision: Precision,
    workers: usize,
    order: &[usize],
) -> Vec<Vec<f64>> {
    let server = PredictionServer::start(
        snap,
        ServerConfig {
            workers,
            queue_capacity: 64,
            precision,
        },
    )
    .expect("start");
    let probes = probes();
    let mut results: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
    let tickets: Vec<_> = order
        .iter()
        .map(|&i| {
            server
                .submit(PredictRequest {
                    id: i as u64,
                    sample: probes[i].clone(),
                })
                .expect("submit")
        })
        .collect();
    for t in tickets {
        let p = t.wait();
        results[p.id as usize] = p.probabilities;
    }
    server.shutdown();
    results
}

#[test]
fn f32_replica_matches_f64_within_documented_tolerance() {
    let snap = snapshot();
    let order: Vec<usize> = (0..probes().len()).collect();
    let f64_probs = serve_all(&snap, Precision::F64, 1, &order);
    let f32_probs = serve_all(&snap, Precision::F32, 1, &order);
    for (i, (a, b)) in f64_probs.iter().zip(&f32_probs).enumerate() {
        assert_eq!(a.len(), b.len(), "probe {i}: candidate count drifted");
        let mut worst = 0.0f64;
        for (x, y) in a.iter().zip(b) {
            worst = worst.max((x - y).abs());
        }
        assert!(
            worst <= F32_TOLERANCE,
            "probe {i}: f32 tier diverged by {worst:e} (> {F32_TOLERANCE:e})"
        );
    }
}

#[test]
fn f32_predictions_are_byte_identical_across_workers_and_orders() {
    let snap = snapshot();
    let n = probes().len();
    let forward: Vec<usize> = (0..n).collect();
    let reverse: Vec<usize> = (0..n).rev().collect();
    // Deterministic interleave: evens then odds.
    let interleaved: Vec<usize> = (0..n).step_by(2).chain((1..n).step_by(2)).collect();

    let baseline = serve_all(&snap, Precision::F32, 1, &forward);
    for (workers, order) in [
        (1usize, &reverse),
        (2, &forward),
        (2, &interleaved),
        (4, &reverse),
    ] {
        let got = serve_all(&snap, Precision::F32, workers, order);
        for (i, (want, have)) in baseline.iter().zip(&got).enumerate() {
            assert_eq!(want.len(), have.len(), "probe {i}: candidate count drifted");
            for (j, (w, h)) in want.iter().zip(have).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    h.to_bits(),
                    "probe {i} candidate {j}: {workers} workers changed bits \
                     ({w:.17e} vs {h:.17e})"
                );
            }
        }
    }
}
