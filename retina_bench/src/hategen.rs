//! `hategen_grid`: the Table IV path. Each pass extracts the
//! hate-generation features and runs all six classifiers under all five
//! treatments through `HategenPipeline::run_cell`. No `nn` code runs.

use crate::setup::{self, Corpus};
use crate::stats::fingerprint;
use crate::trace::Tracer;
use crate::Report;
use retina_core::{HategenFeatures, HategenPipeline, ModelKind, Processing};

/// Span names `ml.<model>.<processing>`, in `ModelKind::ALL` ×
/// `Processing::ALL` order.
pub const MODELS: [&str; 6] = [
    "svm_linear",
    "svm_rbf",
    "logreg",
    "dectree",
    "adaboost",
    "xgboost",
];
const PROCS: [&str; 5] = ["none", "ds", "usds", "pca", "topk"];

pub fn run(seed: u64, seconds: f64, tracer: &Tracer) -> Report {
    setup::passes(seed, seconds, tracer, |corpus, parent, report, first| {
        pass(corpus, seed, tracer, parent, report, first)
    })
}

/// One pass; returns a fingerprint of every cell's metrics.
fn pass(
    corpus: &Corpus,
    seed: u64,
    tracer: &Tracer,
    parent: u64,
    report: &mut Report,
    print_sizes: bool,
) -> u64 {
    let min_news = setup::suite_config(seed).min_news;
    let samples = HategenPipeline::build_samples(&corpus.data, min_news);

    let (pipe, _) = tracer.time("features.hategen", parent, || {
        let feats = HategenFeatures::new(&corpus.data, &corpus.models, &corpus.silver);
        HategenPipeline::new(&feats, &samples, None, seed)
    });
    if print_sizes {
        let positives = samples.iter().filter(|s| s.hateful).count();
        println!(
            "# inputs: tweets {} | hate-generation samples {} ({} hateful) | train {} | test {} | features {} | cells {}",
            corpus.data.tweets().len(),
            samples.len(),
            positives,
            pipe.x_train.len(),
            pipe.x_test.len(),
            pipe.x_train.first().map_or(0, Vec::len),
            MODELS.len() * PROCS.len(),
        );
    }

    // Per-request latency: extracting one (user, topic, time) feature
    // vector, the per-request work of hate-generation scoring, on an
    // extractor of its own. The extractions are spread between the cells
    // so they sample the whole pass.
    let online = HategenFeatures::new(&corpus.data, &corpus.models, &corpus.silver);
    let cells = MODELS.len() * PROCS.len();
    let chunk = samples.len().div_ceil(cells);
    let mut chunks = samples.chunks(chunk).enumerate();
    let mut window = Vec::with_capacity(samples.len());
    let mut extract = |report: &mut Report, window: &mut Vec<f64>| {
        if let Some((c, part)) = chunks.next() {
            for (j, s) in part.iter().enumerate() {
                let id = (c * chunk + j) as u64;
                let open = tracer.open("features.hategen_extract", parent, Some(id));
                let row = online.extract(s.user, s.topic, s.t0, None);
                window.push(tracer.close(open) * 1e3);
                report.check(1, u64::from(!row.iter().all(|v| v.is_finite())));
            }
        }
    };

    let mut best = f64::NEG_INFINITY;
    let mut outputs = Vec::new();
    for (m, model) in ModelKind::ALL.into_iter().enumerate() {
        for (p, proc) in Processing::ALL.into_iter().enumerate() {
            extract(report, &mut window);
            let name = format!("ml.{}.{}", MODELS[m], PROCS[p]);
            let (cell, _) = tracer.time(name, parent, || pipe.run_cell(model, proc));
            // Every Table IV cell must report a finite AUC and a valid F1.
            let ok = cell.auc.is_finite() && (0.0..=1.0).contains(&cell.macro_f1);
            report.check(1, u64::from(!ok));
            best = best.max(cell.macro_f1);
            outputs.extend([cell.macro_f1, cell.accuracy, cell.auc]);
        }
    }
    report.lat_ms.push(window);
    report.layer("ml.best_macro_f1", best);
    fingerprint(&outputs)
}
