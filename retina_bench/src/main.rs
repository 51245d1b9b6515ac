//! End-to-end benchmark of the RETINA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path retina_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload (see `README.md` in this directory):
//! it builds its inputs from `--seed`, sets up several times, measures
//! for `--seconds`, checks every output, and prints the metrics as the
//! last line of standard output. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` records a span around every call into the
//! system, writes the spans to `retina_bench/out/`, and prints the
//! per-layer metrics computed from them.
//!
//! The benchmark reaches the system only through public functions of
//! `socialsim`, `text`, `retina_core`, `diffusion`, `ml` and `serving`;
//! every timer lives in this package.

mod hategen;
mod retweet;
mod serve;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{durations, sums_by_parent, Tracer};

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("lat_p50_ms", "ms"),
];

/// Per-layer metrics, printed by a traced run. A layer that a workload
/// bypasses reads 0 on it.
const PER_LAYER: [(&str, &str); 49] = [
    ("socialsim.generate_s", "s"),
    ("socialsim.tweets", "count"),
    ("text.build_s", "s"),
    ("detector.train_s", "s"),
    ("detector.silver_s", "s"),
    ("task.build_s", "s"),
    ("task.candidate_rows", "count"),
    ("features.pack_s", "s"),
    ("features.pack_us_per_row", "us"),
    ("features.hategen_s", "s"),
    ("trainer.retina_s_fit_s", "s"),
    ("trainer.retina_d_fit_s", "s"),
    ("trainer.us_per_row_epoch", "us"),
    ("retina.predict_us_per_req", "us"),
    ("retina32.predict_us_per_req", "us"),
    ("retina.s_macro_f1", "fraction"),
    ("retina.d_macro_f1", "fraction"),
    ("retina.d_map20", "fraction"),
    ("diffusion.topolstm_s", "s"),
    ("diffusion.forest_s", "s"),
    ("diffusion.hidan_s", "s"),
    ("ml.svm_linear_s", "s"),
    ("ml.svm_rbf_s", "s"),
    ("ml.logreg_s", "s"),
    ("ml.dectree_s", "s"),
    ("ml.adaboost_s", "s"),
    ("ml.xgboost_s", "s"),
    ("ml.proc_pca_s", "s"),
    ("ml.proc_topk_s", "s"),
    ("ml.best_macro_f1", "fraction"),
    ("snapshot.encode_s", "s"),
    ("snapshot.decode_s", "s"),
    ("snapshot.restore_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("serving.start_s", "s"),
    ("serving.submit_us_p50", "us"),
    ("serving.submit_us_p99", "us"),
    ("serving.wait_ms_p50", "ms"),
    ("serving.queue_depth_max", "count"),
    ("serving.queue_depth_mean", "count"),
    ("serving.rejected", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("trace.spans", "count"),
    ("traced.setup_s", "s"),
    ("traced.run_s", "s"),
    ("traced.lat_p50_ms", "ms"),
    ("traced.lat_p95_ms", "ms"),
    ("traced.lat_p99_ms", "ms"),
    ("traced.peak_rss_mb", "MB"),
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const WORKLOADS: [&str; 4] = [
    "retweet_train",
    "hategen_grid",
    "serve_open_low",
    "serve_burst_f32",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a workload hands back: raw samples for the end-to-end metrics,
/// output-check counts, and the per-layer values that are not plain
/// span medians.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Seconds of each measured pass (or serve drain); `run_s` is the
    /// fastest. On a shared host a pass slows by up to 1.8x while
    /// another tenant loads the core, so the slow passes follow the
    /// host and the fastest follows the code.
    pub pass_s: Vec<f64>,
    /// Latency of each unit request, in milliseconds, grouped in
    /// windows of the run (or bursts); a percentile is the median of its
    /// groups'.
    pub lat_ms: Vec<Vec<f64>>,
    /// Where `lat_p50_ms` sits among the groups' medians, as a quantile
    /// over groups; `None` takes their median.
    pub lat_p50_over: Option<f64>,
    /// Per-layer samples; the metric is their median.
    pub layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Report {
    /// Count `n` checked outputs, `bad` of which failed.
    pub fn check(&mut self, n: u64, bad: u64) {
        self.attempted += n;
        self.failed += bad;
    }

    /// Add one sample of a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.entry(name).or_default().push(value);
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Each non-empty window's percentile `q`.
fn per_window(windows: &[Vec<f64>], q: f64) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| stats::percentile(w, q))
        .collect()
}

/// Median over the non-empty windows of each window's percentile `q`.
fn windowed(windows: &[Vec<f64>], q: f64) -> f64 {
    stats::median(&per_window(windows, q))
}

/// The end-to-end values of a finished run, in `END_TO_END` order.
fn end_to_end(report: &Report, rss_mb: f64) -> [f64; 4] {
    [
        stats::median(&report.setup_s),
        report.pass_s.iter().copied().fold(f64::INFINITY, f64::min),
        rss_mb,
        match report.lat_p50_over {
            Some(over) => stats::percentile(&per_window(&report.lat_ms, 0.5), over),
            None => windowed(&report.lat_ms, 0.5),
        },
    ]
}

/// Per-layer values from the spans, then the workload's own values on
/// top. Anything still missing is a layer this workload bypasses.
fn per_layer(tracer: &Tracer, report: &Report, e2e: &[f64; 4]) -> Vec<f64> {
    let spans = tracer.spans();
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: String, samples: &[f64], scale: f64| {
        if !samples.is_empty() {
            values.insert(name, stats::median(samples) * scale);
        }
    };
    for (name, _) in PER_LAYER {
        if let Some(span) = name.strip_suffix("_s") {
            put(name.to_string(), &durations(&spans, span), 1.0);
        }
    }
    put(
        "retina.predict_us_per_req".into(),
        &durations(&spans, "retina.predict"),
        1e6,
    );
    put(
        "retina32.predict_us_per_req".into(),
        &durations(&spans, "retina32.predict"),
        1e6,
    );
    // Table IV cells are spans named `ml.<model>.<processing>` under one
    // pass; a model's (or a processing's) time is its cells' sum per pass.
    for model in hategen::MODELS {
        let prefix = format!("ml.{model}.");
        put(
            format!("ml.{model}_s"),
            &sums_by_parent(&spans, |n| n.starts_with(&prefix)),
            1.0,
        );
    }
    for proc in ["pca", "topk"] {
        let suffix = format!(".{proc}");
        let sums = sums_by_parent(&spans, |n| n.starts_with("ml.") && n.ends_with(&suffix));
        put(format!("ml.proc_{proc}_s"), &sums, 1.0);
    }
    for (name, samples) in &report.layers {
        put(name.to_string(), samples, 1.0);
    }
    put("trace.spans".into(), &[spans.len() as f64], 1.0);
    for (name, value) in END_TO_END.iter().zip(e2e) {
        put(format!("traced.{}", name.0), &[*value], 1.0);
    }
    put(
        "traced.lat_p95_ms".into(),
        &[windowed(&report.lat_ms, 0.95)],
        1.0,
    );
    put(
        "traced.lat_p99_ms".into(),
        &[windowed(&report.lat_ms, 0.99)],
        1.0,
    );
    PER_LAYER
        .iter()
        .map(|(name, _)| values.get(*name).copied().unwrap_or(0.0))
        .collect()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("retina_bench: {e}");
            eprintln!(
                "usage: retina_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    eprintln!(
        "# workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nn::par::available()
    );
    let report = match args.workload.as_str() {
        "retweet_train" => retweet::run(args.seed, args.seconds, &tracer),
        "hategen_grid" => hategen::run(args.seed, args.seconds, &tracer),
        "serve_open_low" => serve::run(serve::OPEN_LOW, args.seed, args.seconds, &tracer),
        "serve_burst_f32" => serve::run(serve::BURST_F32, args.seed, args.seconds, &tracer),
        _ => unreachable!("parse_args accepts only listed workloads"),
    };
    let Some(rss) = peak_rss_mb() else {
        eprintln!("retina_bench: cannot read VmHWM from /proc/self/status");
        return ExitCode::FAILURE;
    };
    let e2e = end_to_end(&report, rss);
    eprintln!(
        "# latency p50/p90/p95/p99 ms {:?} (median of {} windows); passes {:?} s",
        [0.5, 0.9, 0.95, 0.99].map(|q| windowed(&report.lat_ms, q)),
        report.lat_ms.len(),
        report.pass_s
    );
    if report.attempted == 0 || e2e.iter().any(|v| !v.is_finite()) {
        eprintln!("retina_bench: run produced no result ({e2e:?})");
        return ExitCode::FAILURE;
    }

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("retina_bench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("# spans written to {}", path.display());
        let layer = per_layer(&tracer, &report, &e2e);
        PER_LAYER
            .iter()
            .zip(layer)
            .map(|((n, u), v)| (*n, *u, v))
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e)
            .map(|((n, u), v)| (*n, *u, v))
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
