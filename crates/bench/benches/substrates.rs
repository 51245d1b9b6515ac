//! Substrate micro-benchmarks: graph generation, TF-IDF, Doc2Vec,
//! attention forward/backward, GRU BPTT, and the Table IV grid's two
//! costliest fits (PCA, gradient boosting) — the building blocks every
//! experiment rests on.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ml::{AdaBoost, AdaBoostConfig, Classifier, Gbdt, GbdtConfig, Pca};
use nn::{AttentionF32, ExogenousAttention, Gru, GruF32, Matrix, MatrixF32};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socialsim::FollowerGraph;
use std::hint::black_box;
use text::{Doc2Vec, Doc2VecConfig, TfIdfConfig, TfIdfVectorizer};

fn bench_graph(c: &mut Criterion) {
    c.bench_function("graph/generate_2k_users", |b| {
        b.iter(|| FollowerGraph::generate(black_box(2000), 12, 12, 0.82, 7))
    });
    let g = FollowerGraph::generate(2000, 12, 12, 0.82, 7);
    c.bench_function("graph/bfs_shortest_path_cap4", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 17) % 1999;
            black_box(g.shortest_path_len(i, (i + 999) % 2000, 4))
        })
    });
}

fn bench_text(c: &mut Criterion) {
    let docs: Vec<String> = (0..500)
        .map(|i| {
            format!(
                "word{} common token{} filler text number {}",
                i % 50,
                i % 13,
                i
            )
        })
        .collect();
    c.bench_function("text/tfidf_fit_500_docs", |b| {
        b.iter(|| TfIdfVectorizer::fit(black_box(&docs), TfIdfConfig::default()))
    });
    let v = TfIdfVectorizer::fit(&docs, TfIdfConfig::default());
    c.bench_function("text/tfidf_transform", |b| {
        b.iter(|| v.transform(black_box("common token3 filler word7 text")))
    });
    let token_docs: Vec<Vec<String>> = docs
        .iter()
        .map(|d| d.split_whitespace().map(str::to_string).collect())
        .collect();
    c.bench_function("text/doc2vec_train_1_epoch", |b| {
        b.iter(|| {
            Doc2Vec::train(
                black_box(&token_docs),
                Doc2VecConfig {
                    dim: 32,
                    epochs: 1,
                    ..Default::default()
                },
            )
        })
    });
}

fn bench_nn(c: &mut Criterion) {
    // Attention at RETINA's production shape: 60 news, hdim 64.
    let xt = Matrix::xavier_seeded(1, 50, 1);
    let xn: Vec<Matrix> = (0..60)
        .map(|i| Matrix::xavier_seeded(1, 50, 2 + i))
        .collect();
    c.bench_function("nn/attention_fwd_bwd_60news", |b| {
        b.iter_batched(
            || ExogenousAttention::new(50, 50, 64, 0),
            |mut att| {
                let out = att.forward(&xt, &xn);
                let g = out.map(|v| v * 0.1);
                black_box(att.backward(&g))
            },
            BatchSize::SmallInput,
        )
    });

    let xs: Vec<Matrix> = (0..6).map(|i| Matrix::xavier_seeded(64, 128, i)).collect();
    c.bench_function("nn/gru_bptt_6steps_batch64", |b| {
        b.iter_batched(
            || Gru::new(128, 64, 0),
            |mut gru| {
                let hs = gru.forward(&xs);
                let grads: Vec<Matrix> = hs.iter().map(|h| h.map(|v| v * 0.01)).collect();
                black_box(gru.backward(&grads))
            },
            BatchSize::SmallInput,
        )
    });

    // Inference-path pairs: forward-only at the same production shapes,
    // f64 vs the f32 tier. The f32 layers are built once — the serving
    // pattern — so steady-state scratch reuse is what's measured.
    let mut att = ExogenousAttention::new(50, 50, 64, 0);
    c.bench_function("nn/attention_infer_60news", |b| {
        b.iter(|| black_box(att.forward(&xt, &xn)))
    });
    let mut att32 = AttentionF32::from_attention(&ExogenousAttention::new(50, 50, 64, 0));
    let xt32 = MatrixF32::from_f64(&xt);
    let xn32: Vec<MatrixF32> = xn.iter().map(MatrixF32::from_f64).collect();
    c.bench_function("nn/attention_infer_60news_f32", |b| {
        b.iter(|| {
            black_box(att32.forward(&xt32, &xn32));
        })
    });

    let mut gru = Gru::new(128, 64, 0);
    c.bench_function("nn/gru_infer_6steps_batch64", |b| {
        b.iter(|| black_box(gru.forward(&xs)))
    });
    let mut gru32 = GruF32::from_gru(&Gru::new(128, 64, 0));
    let xs32: Vec<MatrixF32> = xs.iter().map(MatrixF32::from_f64).collect();
    c.bench_function("nn/gru_infer_6steps_batch64_f32", |b| {
        b.iter(|| {
            black_box(gru32.forward(&xs32));
        })
    });
}

/// A seeded training set shaped like the Table IV grid's: 1000 rows of
/// 850 features (a third sparse TF-IDF-like weights, a third small
/// counts, a third dense embedding-like values), about 5% positives.
fn hategen_like(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|f| match f % 3 {
                    0 if rng.gen_bool(0.9) => 0.0,
                    0 => rng.gen_range(0.0..1.0),
                    1 => f64::from(rng.gen_range(0u32..5)),
                    _ => rng.gen_range(-1.0..1.0),
                })
                .collect()
        })
        .collect();
    let y = x
        .iter()
        .map(|r| u8::from(r[2] + r[5] + rng.gen_range(-0.5..0.5) > 1.4))
        .collect();
    (x, y)
}

fn bench_ml(c: &mut Criterion) {
    let (x, y) = hategen_like(1000, 850, 11);
    // The grid's PCA treatment: 50 components, 12 subspace iterations.
    c.bench_function("ml/pca_fit_1000x850_k50", |b| {
        b.iter(|| Pca::fit(black_box(&x), 50, 12, 0))
    });
    // The grid's AdaBoost row (Table III settings: 50 stumps, seed 1).
    c.bench_function("ml/adaboost_fit_1000x850", |b| {
        b.iter(|| {
            let mut m = AdaBoost::new(AdaBoostConfig {
                seed: 1,
                ..Default::default()
            });
            m.fit(black_box(&x), &y);
            m
        })
    });
    // The grid's XGBoost row (Table III settings).
    c.bench_function("ml/gbdt_fit_1000x850", |b| {
        b.iter(|| {
            let mut m = Gbdt::new(GbdtConfig {
                eta: 0.4,
                reg_alpha: 0.9,
                ..Default::default()
            });
            m.fit(black_box(&x), &y);
            m
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_graph, bench_text, bench_nn, bench_ml
}
criterion_main!(benches);
