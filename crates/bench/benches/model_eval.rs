//! Criterion benches for per-model evaluation latency — the host-measured
//! analogue of the `t_eval` column in the paper's Tables III/IV.
//!
//! Each model family is fitted once on a shared synthetic regression
//! problem, then timed on single-row prediction — the ordering (linear
//! fastest, forest slowest among trees) is the property the paper's model
//! selection hinges on — and, for the tree ensembles, on the batched
//! prediction a decision sweep makes.

use adsala_ml::data::Matrix;
use adsala_ml::{AnyModel, ModelKind, Regressor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::hint::black_box;

fn dataset(n: usize) -> (Matrix, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(42);
    let rows: Vec<Vec<f64>> =
        (0..n).map(|_| (0..10).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect();
    let y: Vec<f64> =
        rows.iter().map(|r| r[0] * r[0] + (r[1] * 3.0).sin() + 0.3 * r[2] * r[3]).collect();
    (Matrix::from_rows(&rows), y)
}

fn bench_predict_row(c: &mut Criterion) {
    let (x, y) = dataset(800);
    let probe: Vec<f64> = x.row(17).to_vec();
    let mut group = c.benchmark_group("model_eval/predict_row");
    for kind in ModelKind::table_candidates() {
        let mut model = AnyModel::default_for(kind);
        model.fit(&x, &y).expect("fit");
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &model, |b, m| {
            b.iter(|| m.predict_row(black_box(&probe)))
        });
    }
    group.finish();
}

/// 54 rows shaped like the ones a widened-grid decision sweep prices (3
/// thread rungs × 18 plan points over one shape): three columns hold one
/// value over the batch (shape-only terms), four hold one value per rung
/// (thread-dependent terms), three cycle through two or three values
/// within a rung (plan axes). The values are those of three data rows, so
/// the trees' thresholds fall between them.
fn sweep_shaped_batch(x: &Matrix) -> Vec<f64> {
    let donor = |i: usize, col: usize| x.row(i)[col];
    (0..54)
        .flat_map(|i| {
            let (rung, point) = (i / 18, i % 18);
            (0..x.cols()).map(move |col| match col {
                0..=2 => donor(0, col),
                3..=6 => donor(rung, col),
                7 => donor(point % 3, col),
                8 => donor(point / 3 % 3, col),
                _ => donor(point / 9, col),
            })
        })
        .collect()
}

/// One 54-row `predict_rows` call (a widened-grid decision sweep) for the
/// tree ensembles, which evaluate it set-valued, on two batches: `sweep`
/// is [`sweep_shaped_batch`], the batch the library serves; `dense` is 54
/// i.i.d. data rows, every row its own value class in every column — the
/// worst case, which no sweep produces. `row_loop_*` is `predict_row`
/// looped over the same rows (distinct rows, unlike the single probe
/// above, whose path the branch predictor learns).
fn bench_predict_rows(c: &mut Criterion) {
    let (x, y) = dataset(800);
    let batches = [
        ("sweep", sweep_shaped_batch(&x)),
        ("dense", x.row_iter().take(54).flatten().copied().collect::<Vec<f64>>()),
    ];
    let mut out = vec![0.0; 54];
    let mut group = c.benchmark_group("model_eval/predict_rows_54");
    for kind in [ModelKind::RandomForest, ModelKind::XgBoost, ModelKind::LightGbm] {
        let mut model = AnyModel::default_for(kind);
        model.fit(&x, &y).expect("fit");
        for (label, batch) in &batches {
            group.bench_with_input(BenchmarkId::new(*label, kind.name()), &model, |b, m| {
                b.iter(|| {
                    m.predict_rows(black_box(batch), x.cols(), &mut out);
                    black_box(out[53])
                })
            });
            let row_loop = format!("row_loop_{label}");
            group.bench_with_input(BenchmarkId::new(row_loop, kind.name()), &model, |b, m| {
                b.iter(|| {
                    for (row, pred) in black_box(batch).chunks_exact(x.cols()).zip(&mut out) {
                        *pred = m.predict_row(row);
                    }
                    black_box(out[53])
                })
            });
        }
    }
    group.finish();
}

fn bench_fit(c: &mut Criterion) {
    let (x, y) = dataset(400);
    let mut group = c.benchmark_group("model_eval/fit_400x10");
    group.sample_size(10);
    for kind in [
        ModelKind::LinearRegression,
        ModelKind::BayesianRidge,
        ModelKind::DecisionTree,
        ModelKind::XgBoost,
        ModelKind::LightGbm,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.name()), &kind, |b, &k| {
            b.iter(|| {
                let mut model = AnyModel::default_for(k);
                model.fit(black_box(&x), black_box(&y)).expect("fit");
                model
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_predict_row, bench_predict_rows, bench_fit);
criterion_main!(benches);
