//! Serving workloads: RETINA-S replicas restored from a snapshot of a
//! freshly trained model, driven by an open-loop arrival schedule.
//!
//! Requests replay a fixed-mix pool cut from the packed test samples
//! (`setup::request_pool`). One generator thread
//! submits each request when it is due; one collector thread blocks on
//! `Ticket::wait` in submission order. Latency runs from when a request
//! was due, so a late generator or a stalled server both count.

use crate::setup;
use crate::stats::{self, is_prob};
use crate::trace::Tracer;
use crate::{Report, SETUPS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use retina_core::retina::PackedSample;
use retina_core::{PipelineState, Retina, RetinaConfig, Snapshot, TrainConfig, Trainer};
use serving::{Precision, PredictRequest, PredictionServer, ServerConfig, Ticket};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Arrival process of a serving workload.
#[derive(Clone, Copy)]
pub enum Traffic {
    /// Poisson arrivals at `rps` requests per second.
    Open { rps: f64 },
    /// Evenly spaced bursts of `size` simultaneous requests, `rps`
    /// requests per second on average. With `size` half the pool, the
    /// bursts carry the pool's even and odd requests in turn; the pool is
    /// sorted by candidate count, so every burst is the same mix.
    Burst { rps: f64, size: usize },
}

#[derive(Clone, Copy)]
pub struct Load {
    pub precision: Precision,
    pub traffic: Traffic,
}

/// A few percent of one f64 worker's capacity: the batch deadline
/// dominates.
pub const OPEN_LOW: Load = Load {
    precision: Precision::F64,
    traffic: Traffic::Open { rps: 100.0 },
};

/// Under a tenth of one f32 worker's capacity, in bursts far below the
/// default queue capacity, so batches close on size. The spacing is
/// even: a burst drains before the next arrives, so latency is drain
/// time, set by the f32 kernels, not by chance pile-ups of bursts. The
/// low mean rate keeps that true while other tenants of a shared host
/// slow the worker several times over; at three times this rate such a
/// spell overloaded the worker and the full queue rejected requests.
pub const BURST_F32: Load = Load {
    precision: Precision::F32,
    traffic: Traffic::Burst {
        rps: 400.0,
        size: 32,
    },
};

/// Length of the windows of due time that latency percentiles are
/// taken over, in seconds.
const WINDOW_S: f64 = 2.0;

/// Under burst traffic `lat_p50_ms` is this quantile over bursts of each
/// burst's median latency. Other tenants of a shared host slow most
/// bursts by up to 2x for minutes at a time; the fastest bursts follow
/// the code, as the fastest drain does for `run_s`.
const BURST_P50_OVER: f64 = 0.05;

/// Times the request pool is drained through the server after each
/// window of the schedule.
const DRAINS: usize = 4;

/// Direct calls per test sample for the reference outputs; a sample's
/// compute time is their median.
const DIRECT_CALLS: usize = 3;

/// A model replica called directly, without the server.
type Direct = Box<dyn FnMut(&PackedSample) -> Vec<f64>>;

/// What one set-up leaves running.
struct Ready {
    /// Input sizes for the `# inputs:` line.
    sizes: String,
    pool: Vec<PackedSample>,
    direct: Direct,
    /// Span name of a direct call.
    direct_span: &'static str,
    server: PredictionServer,
    snapshot_hash: u64,
}

fn set_up(load: Load, seed: u64, tracer: &Tracer, parent: u64, report: &mut Report) -> Ready {
    let cfg = setup::suite_config(seed);
    let corpus = setup::corpus(seed, tracer, parent);
    let task = setup::task(&corpus, &cfg, tracer, parent);
    let (packed, pack_us_per_row) = setup::pack(&corpus, &task, cfg.news_k, tracer, parent);
    report.layer("socialsim.tweets", corpus.data.tweets().len() as f64);
    report.layer("task.candidate_rows", task.all_rows as f64);
    report.layer("features.pack_us_per_row", pack_us_per_row);

    let d_user = packed.train[0].user_rows[0].len();
    let mut model = Retina::new(
        d_user,
        RetinaConfig {
            seed,
            news_k: cfg.news_k,
            threads: setup::THREADS,
            ..RetinaConfig::static_default()
        },
    );
    let train = TrainConfig {
        epochs: cfg.retina_epochs,
        seed,
        ..TrainConfig::static_default()
    };
    let (_, fit_s) = tracer.time("trainer.retina_s_fit", parent, || {
        Trainer::new(train.clone()).fit(&mut model, &packed.train)
    });
    let row_epochs = (setup::rows(&task.train) * cfg.retina_epochs) as f64;
    report.layer("trainer.us_per_row_epoch", fit_s * 1e6 / row_epochs);

    let (bytes, _) = tracer.time("snapshot.encode", parent, || {
        Snapshot::capture(&model)
            .with_pipeline(PipelineState::from_text_models(&corpus.models))
            .with_trainer(train)
            .encode()
    });
    report.layer("snapshot.bytes", bytes.len() as f64);
    let (snapshot, _) = tracer.time("snapshot.decode", parent, || Snapshot::decode(&bytes));
    let snapshot = snapshot.expect("a snapshot just encoded decodes");
    let (replica, _) = tracer.time("snapshot.restore", parent, || snapshot.restore());
    let replica = replica.expect("a decoded snapshot restores");
    let (direct, direct_span): (Direct, _) = match load.precision {
        Precision::F64 => {
            let mut m = replica;
            (Box::new(move |s| m.predict_proba(s)), "retina.predict")
        }
        Precision::F32 => {
            let mut m = replica.to_f32_inference();
            (Box::new(move |s| m.predict_proba(s)), "retina32.predict")
        }
    };

    // Training publishes a process-wide kernel thread count; serving
    // workers run single-threaded kernels, one request per core.
    nn::par::set_threads(1);
    let config = ServerConfig {
        workers: nn::par::available().saturating_sub(1).max(1),
        precision: load.precision,
        ..ServerConfig::default()
    };
    let (server, _) = tracer.time("serving.start", parent, || {
        PredictionServer::start(&snapshot, config)
    });
    Ready {
        sizes: format!(
            "tweets {} | task rows {} | train {} samples {} rows | test {} samples",
            corpus.data.tweets().len(),
            task.all_rows,
            task.train.len(),
            setup::rows(&task.train),
            task.test.len(),
        ),
        pool: setup::request_pool(&packed.test),
        direct,
        direct_span,
        server: server.expect("server starts from a valid snapshot"),
        snapshot_hash: retina_core::snapshot::fnv1a64(&bytes),
    }
}

/// One scheduled request: its id, when it is due (seconds after the
/// phase starts) and which pool request it carries.
#[derive(Clone, Copy)]
struct Due {
    id: u64,
    at: f64,
    sample: usize,
}

fn schedule(traffic: Traffic, pool: usize, seed: u64, seconds: f64) -> Vec<Due> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10AD);
    let mut out = Vec::new();
    let mut t = 0.0;
    for burst in 0.. {
        let size = match traffic {
            Traffic::Open { rps } => {
                let u: f64 = rng.gen_range(0.0..1.0);
                t += -(1.0 - u).ln() / rps;
                1
            }
            Traffic::Burst { rps, size } => {
                t += size as f64 / rps;
                size
            }
        };
        if t >= seconds {
            break;
        }
        for j in 0..size {
            let sample = match traffic {
                Traffic::Open { .. } => rng.gen_range(0..pool),
                Traffic::Burst { .. } => (2 * j + burst % 2) % pool,
            };
            out.push(Due {
                id: out.len() as u64,
                at: t,
                sample,
            });
        }
    }
    out
}

/// A completed request as the collector saw it.
struct Done {
    sample: usize,
    /// When the request was due, in seconds after the phase started.
    at: f64,
    latency_ms: f64,
    ok: bool,
}

pub fn run(load: Load, seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    let mut report = Report {
        lat_p50_over: match load.traffic {
            Traffic::Open { .. } => None,
            Traffic::Burst { .. } => Some(BURST_P50_OVER),
        },
        ..Report::default()
    };
    let mut ready: Option<Ready> = None;
    let mut first_hash = None;
    for _ in 0..SETUPS {
        if let Some(old) = ready.take() {
            old.server.shutdown();
        }
        let open = tracer.open("setup", 0, None);
        let r = set_up(load, seed, tracer, open.id, &mut report);
        report.setup_s.push(tracer.close(open));
        // Set-up is deterministic: every snapshot must be the first's.
        let hash = *first_hash.get_or_insert(r.snapshot_hash);
        report.check(1, u64::from(hash != r.snapshot_hash));
        ready = Some(r);
    }
    let Ready {
        sizes,
        pool,
        mut direct,
        direct_span,
        server,
        ..
    } = ready.expect("at least one set-up ran");

    // Reference outputs and per-sample compute time from direct calls.
    let mut reference: Vec<Vec<f64>> = Vec::with_capacity(pool.len());
    let mut compute_ms: Vec<f64> = Vec::with_capacity(pool.len());
    for (i, sample) in pool.iter().enumerate() {
        let mut times = Vec::with_capacity(DIRECT_CALLS);
        for call in 0..DIRECT_CALLS {
            let open = tracer.open(direct_span, 0, Some(i as u64));
            let probs = direct(sample);
            times.push(tracer.close(open) * 1e3);
            if call == 0 {
                report.check(1, u64::from(!probs.iter().all(|&p| is_prob(p))));
                reference.push(probs);
            } else {
                report.check(1, u64::from(!same_bits(&probs, &reference[i])));
            }
        }
        compute_ms.push(stats::median(&times));
    }

    let plan = schedule(load.traffic, pool.len(), seed, seconds);
    let cands: Vec<f64> = pool.iter().map(|s| s.labels.len() as f64).collect();
    let traffic = match load.traffic {
        Traffic::Open { rps } => format!("open loop {rps} rps"),
        Traffic::Burst { rps, size } => {
            let every_ms = size as f64 / rps * 1e3;
            format!("bursts of {size} every {every_ms:.1} ms ({rps} rps)")
        }
    };
    println!(
        "# inputs: {sizes} | pool {} requests, {} rows, candidates p10/p50/p90 {}/{}/{} \
         | d_user {} | news_k {} | {traffic} | {} requests over {} s | workers {} | precision {:?}",
        pool.len(),
        cands.iter().sum::<f64>(),
        stats::percentile(&cands, 0.1),
        stats::percentile(&cands, 0.5),
        stats::percentile(&cands, 0.9),
        pool[0].user_rows[0].len(),
        pool[0].news_d2v.len(),
        plan.len(),
        seconds,
        server.workers(),
        load.precision,
    );

    // The schedule runs window by window, each window followed by
    // `DRAINS` drains of the whole pool submitted at once. Latency
    // percentiles are taken per window and `run_s` is the fastest drain
    // (it follows the server's throughput), so a slow spell of the host
    // moves only the windows and drains it covers.
    let windows = (seconds / WINDOW_S).ceil() as usize;
    let mut next_id = plan.len() as u64;
    let mut wait_ms: Vec<f64> = Vec::new();
    let mut lag_ms: Vec<f64> = Vec::new();
    let mut submit_us: Vec<f64> = Vec::new();
    let mut depths: Vec<f64> = Vec::new();
    let mut wrong = 0;
    for w in 0..windows {
        let from = w as f64 * WINDOW_S;
        let segment: Vec<Due> = plan
            .iter()
            .filter(|d| (from..from + WINDOW_S).contains(&d.at))
            .map(|d| Due {
                at: d.at - from,
                ..*d
            })
            .collect();
        let run = open_loop(&server, &pool, &reference, &segment, tracer);
        report.check(segment.len() as u64, run.failed());
        wrong += run.wrong();
        match load.traffic {
            Traffic::Open { .. } => report
                .lat_ms
                .push(run.done.iter().map(|d| d.latency_ms).collect()),
            Traffic::Burst { .. } => report.lat_ms.extend(
                run.done
                    .chunk_by(|a, b| a.at == b.at)
                    .map(|burst| burst.iter().map(|d| d.latency_ms).collect()),
            ),
        }
        wait_ms.extend(run.done.iter().map(|d| d.latency_ms - compute_ms[d.sample]));
        lag_ms.extend(run.lag_ms);
        submit_us.extend(run.submit_us);
        depths.extend(run.depths);
        for _ in 0..DRAINS {
            let drain: Vec<Due> = (0..pool.len())
                .map(|sample| Due {
                    id: next_id + sample as u64,
                    at: 0.0,
                    sample,
                })
                .collect();
            next_id += drain.len() as u64;
            let run = open_loop(&server, &pool, &reference, &drain, tracer);
            report.check(drain.len() as u64, run.failed());
            wrong += run.wrong();
            report.pass_s.push(run.wall_s);
        }
    }

    let stats = server.shutdown();
    eprintln!(
        "# serving: {} accepted, {} completed, {} rejected, {wrong} wrong outputs",
        stats.accepted, stats.completed, stats.rejected
    );
    report.check(1, u64::from(stats.completed != stats.accepted));
    report.layer("serving.rejected", stats.rejected as f64);
    report.layer("serving.wait_ms_p50", stats::percentile(&wait_ms, 0.5));
    report.layer("serving.submit_us_p50", stats::percentile(&submit_us, 0.5));
    report.layer("serving.submit_us_p99", stats::percentile(&submit_us, 0.99));
    report.layer("loadgen.lag_ms_p99", stats::percentile(&lag_ms, 0.99));
    if !depths.is_empty() {
        let max = depths.iter().copied().fold(0.0, f64::max);
        report.layer("serving.queue_depth_max", max);
        report.layer("serving.queue_depth_mean", stats::mean(&depths));
    }
    report
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What one run of a schedule observed.
struct OpenLoop {
    done: Vec<Done>,
    /// How late the generator submitted each request.
    lag_ms: Vec<f64>,
    /// Time spent in each `submit` call.
    submit_us: Vec<f64>,
    /// Queue depth before each submission (traced runs only).
    depths: Vec<f64>,
    rejected: u64,
    /// From the start of the schedule to the last completion.
    wall_s: f64,
}

impl OpenLoop {
    /// Completed requests whose output failed a check.
    fn wrong(&self) -> u64 {
        self.done.iter().filter(|d| !d.ok).count() as u64
    }

    /// Rejected requests and wrong outputs.
    fn failed(&self) -> u64 {
        self.rejected + self.wrong()
    }
}

/// Run the schedule with one generator and one collector thread.
fn open_loop(
    server: &PredictionServer,
    pool: &[PackedSample],
    reference: &[Vec<f64>],
    plan: &[Due],
    tracer: &Tracer,
) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<(Due, Instant, Ticket)>();
    let mut lag_ms = Vec::with_capacity(plan.len());
    let mut submit_us = Vec::with_capacity(plan.len());
    let mut depths = Vec::new();
    let mut rejected = 0;
    // A short lead lets the generator prepare the first requests.
    let phase = Instant::now() + Duration::from_millis(20);
    let (done, last) = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut done = Vec::with_capacity(plan.len());
            let mut last = phase;
            for (Due { id, sample, at }, due, ticket) in rx {
                let open = tracer.open("serving.wait", 0, Some(id));
                let prediction = ticket.wait();
                let finished = Instant::now();
                tracer.close(open);
                last = finished;
                let probs = &prediction.probabilities;
                done.push(Done {
                    sample,
                    at,
                    latency_ms: finished.duration_since(due).as_secs_f64() * 1e3,
                    ok: prediction.id == id
                        && same_bits(probs, &reference[sample])
                        && probs.iter().all(|&p| is_prob(p)),
                });
            }
            (done, last)
        });

        let mut k = 0;
        while k < plan.len() {
            // Requests due together (a burst) are built before they are due.
            let at = plan[k].at;
            let end = plan[k..]
                .iter()
                .position(|d| d.at != at)
                .map_or(plan.len(), |n| k + n);
            let batch: Vec<PredictRequest> = plan[k..end]
                .iter()
                .map(|d| PredictRequest {
                    id: d.id,
                    sample: pool[d.sample].clone(),
                })
                .collect();
            let due = phase + Duration::from_secs_f64(at);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            for (request, d) in batch.into_iter().zip(&plan[k..end]) {
                let id = request.id;
                if tracer.on() {
                    depths.push(server.queue_depth() as f64);
                }
                let open = tracer.open("serving.submit", 0, Some(id));
                lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let submitted = server.submit(request);
                submit_us.push(tracer.close(open) * 1e6);
                match submitted {
                    Ok(ticket) => tx
                        .send((*d, due, ticket))
                        .expect("collector outlives the generator"),
                    Err(_) => rejected += 1,
                }
            }
            k = end;
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    OpenLoop {
        done,
        lag_ms,
        submit_us,
        depths,
        rejected,
        wall_s: last.saturating_duration_since(phase).as_secs_f64(),
    }
}
