//! Inputs every workload builds from its seed: the synthetic corpus,
//! its text models and silver labels, and the retweet task.

use crate::trace::Tracer;
use crate::{Report, SETUPS};
use diffusion::{split_samples, CascadeSample, RetweetTask};
use retina_core::experiments::retweet_suite::SuiteConfig;
use retina_core::experiments::ExperimentContext;
use retina_core::features::{RetweetFeatures, TextModels};
use retina_core::retina::{default_intervals, pack_samples_parallel, PackedSample};
use retina_core::HateDetector;
use socialsim::{Dataset, SimConfig};
use std::time::Instant;

/// Doc2Vec epochs of the smoke corpus (as `exp_* --smoke`).
const D2V_EPOCHS: usize = 2;

/// Threads for packing, training and scoring in every workload. On a
/// shared host another tenant slows one core at a time: work split over
/// every core waits on the slowed one, while a single thread can be
/// moved to the other.
pub const THREADS: usize = 1;

/// Candidate rows kept from the shuffled train and test splits. Fixing
/// the row count holds the work per pass steady across seeds; every
/// seed's task has more rows than this.
pub const TRAIN_ROWS: usize = 4000;
pub const TEST_ROWS: usize = 1000;

/// Retweet-task settings: the smoke suite with the paper's 60 attended
/// news items (hdim stays at the paper's 64 via `RetinaConfig`).
pub fn suite_config(seed: u64) -> SuiteConfig {
    SuiteConfig {
        news_k: 60,
        seed,
        ..SuiteConfig::smoke()
    }
}

/// Corpus, text models and silver labels for one seed.
pub struct Corpus {
    pub data: Dataset,
    pub models: TextModels,
    pub silver: Vec<bool>,
}

pub fn corpus(seed: u64, tracer: &Tracer, parent: u64) -> Corpus {
    let config = SimConfig {
        seed,
        ..ExperimentContext::smoke_config()
    };
    let (data, _) = tracer.time("socialsim.generate", parent, || Dataset::generate(config));
    let (models, _) = tracer.time("text.build", parent, || {
        TextModels::build(&data, D2V_EPOCHS)
    });
    let (detector, _) = tracer.time("detector.train", parent, || {
        HateDetector::train(&data, &models, 0.6, seed ^ 0xDE7)
    });
    let (silver, _) = tracer.time("detector.silver", parent, || {
        detector.silver_labels(&data, &models)
    });
    Corpus {
        data,
        models,
        silver,
    }
}

/// A batch workload: set up `SETUPS` times, then run `pass` until
/// `seconds` have gone by (at least once). `pass` gets the corpus, its
/// parent span and whether it is the first pass, and returns a
/// fingerprint of its outputs, which every later pass must repeat.
pub fn passes(
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    mut pass: impl FnMut(&Corpus, u64, &mut Report, bool) -> u64,
) -> Report {
    let mut report = Report::default();
    let mut corpus = None;
    for _ in 0..SETUPS {
        // Free the previous set-up's corpus before building the next.
        drop(corpus.take());
        let open = tracer.open("setup", 0, None);
        corpus = Some(self::corpus(seed, tracer, open.id));
        report.setup_s.push(tracer.close(open));
    }
    let corpus = corpus.expect("at least one set-up ran");
    report.layer("socialsim.tweets", corpus.data.tweets().len() as f64);

    let start = Instant::now();
    let mut first_pass: Option<u64> = None;
    loop {
        let open = tracer.open("pass", 0, None);
        let outputs = pass(&corpus, open.id, &mut report, first_pass.is_none());
        report.pass_s.push(tracer.close(open));
        match first_pass {
            None => first_pass = Some(outputs),
            // Same seed, same inputs: every pass must repeat the first.
            Some(f) => report.check(1, u64::from(f != outputs)),
        }
        if start.elapsed().as_secs_f64() >= seconds {
            return report;
        }
    }
}

/// The retweet task cut to the row budgets.
pub struct Task {
    pub train: Vec<CascadeSample>,
    pub test: Vec<CascadeSample>,
    /// Candidate rows of the whole task before the cut.
    pub all_rows: usize,
}

pub fn task(corpus: &Corpus, cfg: &SuiteConfig, tracer: &Tracer, parent: u64) -> Task {
    let (samples, _) = tracer.time("task.build", parent, || {
        RetweetTask {
            min_retweets: 1,
            min_news: cfg.min_news,
            max_candidates: cfg.max_candidates,
            include_non_followers: cfg.include_non_followers,
            seed: cfg.seed,
        }
        .build(&corpus.data)
    });
    let all_rows = rows(&samples);
    let (train, test) = split_samples(samples, 0.8, cfg.seed ^ 0x5EED);
    Task {
        train: take_rows(train, TRAIN_ROWS),
        test: take_rows(test, TEST_ROWS),
        all_rows,
    }
}

/// Candidate rows over `samples`.
pub fn rows<'a>(samples: impl IntoIterator<Item = &'a CascadeSample>) -> usize {
    samples.into_iter().map(|s| s.candidates.len()).sum()
}

/// The shortest prefix of `samples` holding at least `budget` rows.
fn take_rows(mut samples: Vec<CascadeSample>, budget: usize) -> Vec<CascadeSample> {
    let mut acc = 0;
    let keep = samples
        .iter()
        .position(|s| {
            acc += s.candidates.len();
            acc >= budget
        })
        .map_or(samples.len(), |i| i + 1);
    samples.truncate(keep);
    samples
}

/// Packed train and test samples.
pub struct Packed {
    pub train: Vec<PackedSample>,
    pub test: Vec<PackedSample>,
}

/// Pack the train and test samples on `THREADS` threads; also returns
/// the packing time per candidate row in microseconds.
pub fn pack(
    corpus: &Corpus,
    task: &Task,
    news_k: usize,
    tracer: &Tracer,
    parent: u64,
) -> (Packed, f64) {
    let feats = RetweetFeatures::new(&corpus.data, &corpus.models, &corpus.silver);
    let intervals = default_intervals();
    let (packed, secs) = tracer.time("features.pack", parent, || Packed {
        train: pack_samples_parallel(&feats, &task.train, &intervals, news_k, THREADS),
        test: pack_samples_parallel(&feats, &task.test, &intervals, news_k, THREADS),
    });
    let n_rows = rows(&task.train) + rows(&task.test);
    (packed, secs * 1e6 / n_rows as f64)
}

/// Requests in a pool, and the candidate-count quantiles they follow:
/// the shape of the smoke corpus's test samples (p10 6, p50 20, p90 at
/// the 30-candidate cap). Every seed's pool has the same mix, so the
/// work per request does not move with the corpus; every row is a real
/// packed row.
pub const POOL: usize = 64;
const POOL_SHAPE: [(f64, f64); 5] = [
    (0.0, 3.0),
    (0.1, 6.0),
    (0.5, 20.0),
    (0.9, 30.0),
    (1.0, 30.0),
];

/// A pool of `POOL` requests cut from `samples`: request `i` takes the
/// first `c_i` candidates of a sample that has at least `c_i`.
pub fn request_pool(samples: &[PackedSample]) -> Vec<PackedSample> {
    (0..POOL)
        .map(|i| {
            let q = (i as f64 + 0.5) / POOL as f64;
            let seg = POOL_SHAPE
                .windows(2)
                .find(|w| q <= w[1].0)
                .expect("quantile within [0, 1]");
            let (a, b) = (seg[0], seg[1]);
            let want = (a.1 + (q - a.0) / (b.0 - a.0) * (b.1 - a.1)).round() as usize;
            let fits: Vec<&PackedSample> =
                samples.iter().filter(|s| s.labels.len() >= want).collect();
            let sample = match fits.len() {
                0 => samples
                    .iter()
                    .max_by_key(|s| s.labels.len())
                    .expect("the test split is never empty"),
                n => fits[i % n],
            };
            truncate(sample, want.min(sample.labels.len()))
        })
        .collect()
}

/// `sample` restricted to its first `n` candidates.
fn truncate(sample: &PackedSample, n: usize) -> PackedSample {
    PackedSample {
        user_rows: sample.user_rows[..n].to_vec(),
        labels: sample.labels[..n].to_vec(),
        interval_labels: sample.interval_labels[..n].to_vec(),
        retweet_times: sample.retweet_times[..n].to_vec(),
        ..sample.clone()
    }
}
