//! Property-based invariants of the ML pipeline: preprocessing
//! transforms, feature construction, and model behaviour on arbitrary
//! (but valid) inputs.

use adsala_repro::adsala::{OpShape, Precision, RowLayout, FEATURE_COUNT};
use adsala_repro::adsala_gemm::plan::PlanPoint;
use adsala_repro::adsala_ml::data::{label_strata, stratified_split, Matrix};
use adsala_repro::adsala_ml::preprocess::yeo_johnson::{
    inverse_value, transform_value, YeoJohnson,
};
use adsala_repro::adsala_ml::preprocess::{CorrelationPruner, StandardScaler};
use adsala_repro::adsala_ml::{AnyModel, ModelKind, Regressor};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn yeo_johnson_is_monotone_and_invertible(
        lambda in -4.0f64..4.0,
        a in -50.0f64..50.0,
        b in -50.0f64..50.0,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let (tl, th) = (transform_value(lo, lambda), transform_value(hi, lambda));
        prop_assert!(tl <= th, "not monotone: ψ({lo})={tl} > ψ({hi})={th} at λ={lambda}");
        let back = inverse_value(tl, lambda);
        prop_assert!(
            (back - lo).abs() < 1e-6 * (1.0 + lo.abs()),
            "inverse broke: {lo} -> {tl} -> {back} at λ={lambda}"
        );
    }

    #[test]
    fn features_are_finite_and_positive_thread_scaling(
        m in 1u64..80_000,
        k in 1u64..80_000,
        n in 1u64..80_000,
        t in 1u32..512,
    ) {
        let shape = OpShape::gemm(Precision::F32, m, k, n);
        let f = RowLayout::Table2.row(&shape, &PlanPoint::threads_only(t));
        prop_assert_eq!(f.len(), FEATURE_COUNT);
        prop_assert!(f.iter().all(|v| v.is_finite() && *v >= 0.0));
        // Group-2 features shrink as the thread count grows.
        let f2 = RowLayout::Table2.row(&shape, &PlanPoint::threads_only(t * 2));
        for i in 9..FEATURE_COUNT {
            prop_assert!(f2[i] <= f[i] + 1e-12);
        }
        // Group-1 features ignore the thread count (except the count itself).
        for i in 0..3 {
            prop_assert_eq!(f2[i], f[i]);
        }
    }

    #[test]
    fn scaler_roundtrips_arbitrary_matrices(
        rows in 2usize..30,
        cols in 1usize..6,
        seed in 0u64..500,
    ) {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / 1e8) - 40.0
            })
            .collect();
        let x = Matrix::from_vec(rows, cols, data);
        let scaler = StandardScaler::fit(&x).unwrap();
        let t = scaler.transform(&x).unwrap();
        let back = scaler.inverse_transform(&t).unwrap();
        for (a, b) in back.as_slice().iter().zip(x.as_slice()) {
            prop_assert!((a - b).abs() < 1e-8 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn stratified_split_partitions_any_labels(
        n in 20usize..200,
        frac in 0.1f64..0.5,
        seed in 0u64..100,
    ) {
        let y: Vec<f64> = (0..n).map(|i| ((i * 37) % 101) as f64).collect();
        let (train, test) = stratified_split(&y, frac, 10, seed);
        prop_assert_eq!(train.len() + test.len(), n);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), n, "split lost or duplicated indices");
        let expect = (n as f64 * frac) as i64;
        prop_assert!((test.len() as i64 - expect).abs() <= n as i64 / 5 + 5);
    }

    #[test]
    fn strata_are_label_ordered(n in 10usize..100, bins in 2usize..8) {
        let y: Vec<f64> = (0..n).map(|i| (i as f64).sin() * 100.0).collect();
        let strata = label_strata(&y, bins);
        // A sample in a higher stratum never has a smaller label than one
        // in a lower stratum.
        for i in 0..n {
            for j in 0..n {
                if strata[i] < strata[j] {
                    prop_assert!(y[i] <= y[j] + 1e-12);
                }
            }
        }
    }
}

proptest! {
    // Model fitting is slower; fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn tree_models_predict_within_label_hull(seed in 0u64..100) {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64 / 100.0 - 5.0
        };
        let rows: Vec<Vec<f64>> = (0..80).map(|_| vec![rand(), rand()]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1]).collect();
        let x = Matrix::from_rows(&rows);
        let (lo, hi) = y.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        for kind in [ModelKind::DecisionTree, ModelKind::RandomForest, ModelKind::AdaBoost] {
            let mut model = AnyModel::default_for(kind);
            model.fit(&x, &y).unwrap();
            for probe in x.row_iter().take(20) {
                let p = model.predict_row(probe);
                prop_assert!(
                    p >= lo - 1e-9 && p <= hi + 1e-9,
                    "{kind:?} predicted {p} outside [{lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn correlation_pruner_always_keeps_at_least_one_feature(seed in 0u64..50) {
        let mut s = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % 1000) as f64
        };
        let base: Vec<f64> = (0..40).map(|_| rand()).collect();
        // Four highly correlated copies of one signal.
        let rows: Vec<Vec<f64>> = base
            .iter()
            .map(|&v| vec![v, v * 2.0, v + 1.0, -v])
            .collect();
        let x = Matrix::from_rows(&rows);
        let pruner = CorrelationPruner::fit(&x, 0.8).unwrap();
        prop_assert!(!pruner.kept.is_empty());
        prop_assert!(pruner.kept.len() <= 4);
        let t = pruner.transform(&x).unwrap();
        prop_assert_eq!(t.cols(), pruner.kept.len());
    }

    #[test]
    fn yeo_johnson_fit_handles_arbitrary_columns(seed in 0u64..50) {
        let mut s = seed.wrapping_mul(0xD134_2543_DE82_EF95) | 1;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2_000_000) as f64 / 1000.0) - 1000.0
        };
        let rows: Vec<Vec<f64>> = (0..60).map(|_| vec![rand(), rand().abs(), -rand().abs()]).collect();
        let x = Matrix::from_rows(&rows);
        let yj = YeoJohnson::fit(&x).unwrap();
        let t = yj.transform(&x).unwrap();
        prop_assert!(t.all_finite());
        prop_assert!(yj.lambdas.iter().all(|l| (-5.0..=5.0).contains(l)));
    }
}
