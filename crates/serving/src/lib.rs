//! Long-lived prediction serving for RETINA.
//!
//! This crate turns a [`retina_core::Snapshot`] into a running
//! [`PredictionServer`]: a pool of worker threads (spawned through the
//! blessed [`nn::par::WorkerPool`]), each holding its own restored model
//! replica with warm per-worker scratch buffers, fed from one bounded
//! request queue. Each worker takes one request at a time as it arrives:
//! a request already holds a batch of candidate followers, so requests
//! are not grouped with one another.
//!
//! ## Determinism contract
//!
//! Serving inherits the workspace's bit-identity guarantee: a request's
//! prediction is a pure function of the snapshot weights and the request
//! sample. Which worker picks a request up, the submission order, and
//! the worker count change only wall-clock behaviour — never a single
//! output bit. Every worker's
//! model is restored from the same snapshot, and `predict_proba` carries
//! no cross-request state. The serving test suite pins this for serial
//! vs concurrent submission at several worker counts.
//!
//! ## Backpressure
//!
//! The queue is bounded. When it is full, [`PredictionServer::submit`]
//! rejects immediately with [`SubmitError::QueueFull`] carrying the
//! observed depth and the capacity — callers never block and requests
//! are never silently dropped. Shutdown is graceful: accepted requests
//! are drained and fulfilled before workers exit.

pub mod server;

pub use server::{
    Precision, PredictRequest, Prediction, PredictionServer, ServeError, ServerConfig, ServerStats,
    SubmitError, Ticket,
};
