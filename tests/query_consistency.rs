//! Cross-method consistency: the four query strategies must tell the same
//! story on the same data.

use affinity::core::measures;
use affinity::prelude::*;
use affinity::query::workload::{self, WorkloadConfig};

#[test]
fn online_workload_checksums_agree() {
    let data = stock_dataset(&StockConfig::reduced(30, 100));
    let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
    let wn = NaiveExecutor::new(&data);
    let wa = AffineExecutor::new(&data, &affine);
    let queries = workload::generate(
        &WorkloadConfig {
            queries: 120,
            ids_per_query: 8,
            ..Default::default()
        },
        data.series_count(),
    );
    let a = workload::run_naive(&wn, &queries);
    let b = workload::run_affine(&wa, &queries);
    let rel = (a - b).abs() / a.abs().max(1.0);
    assert!(rel < 0.05, "relative divergence {rel}");
}

#[test]
fn met_result_sets_nest_with_tau() {
    // Monotonicity: raising τ can only shrink a greater-than result set,
    // for every method.
    let data = sensor_dataset(&SensorConfig::reduced(24, 64));
    let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
    let wn = NaiveExecutor::new(&data);
    let wa = AffineExecutor::new(&data, &affine);
    let wf = DftExecutor::new(&data);
    let taus = [0.0, 0.3, 0.6, 0.9];
    let mut prev_sizes = [usize::MAX; 4];
    for tau in taus {
        let sizes = [
            wn.met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
                .len(),
            wa.met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
                .len(),
            wf.met_pairs(ThresholdOp::Greater, tau).len(),
            index
                .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
                .unwrap()
                .len(),
        ];
        for (i, (&s, &p)) in sizes.iter().zip(prev_sizes.iter()).enumerate() {
            assert!(s <= p, "method {i} grew from {p} to {s} at tau {tau}");
        }
        prev_sizes = sizes;
    }
}

#[test]
fn scape_and_wa_are_identical_wn_is_close() {
    let data = stock_dataset(&StockConfig::reduced(26, 120));
    let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
    let wn = NaiveExecutor::new(&data);
    let wa = AffineExecutor::new(&data, &affine);

    let tau = 0.7;
    let mut s: Vec<_> = index
        .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
        .unwrap();
    let mut a = wa.met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau);
    s.sort();
    a.sort();
    assert_eq!(s, a, "SCAPE must equal brute-forced W_A exactly");

    // W_N differs only by approximation error: Jaccard similarity high.
    let n: std::collections::BTreeSet<_> = wn
        .met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
        .into_iter()
        .collect();
    let s: std::collections::BTreeSet<_> = s.into_iter().collect();
    let inter = n.intersection(&s).count();
    let union = n.union(&s).count().max(1);
    assert!(
        inter as f64 / union as f64 > 0.7,
        "Jaccard {}",
        inter as f64 / union as f64
    );
}

#[test]
fn wf_only_handles_correlation_and_degrades_gracefully() {
    // The paper stresses W_F's limitation: correlation only. Our API
    // enforces it statically (no covariance method exists), so here we
    // check the quality claim: W_F error is visibly worse than W_A on
    // noisy data but both remain sane.
    let data = sensor_dataset(&SensorConfig::reduced(20, 128));
    let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
    let engine = MecEngine::new(&data, &affine);
    let wf = DftExecutor::new(&data);

    let exact = measures::pairwise_all(PairwiseMeasure::Correlation, &data);
    let wa: Vec<f64> = engine
        .pairwise_all(PairwiseMeasure::Correlation)
        .expect("full affine set");
    let wf_vals: Vec<f64> = data
        .sequence_pairs()
        .iter()
        .map(|&p| wf.correlation(p))
        .collect();
    let err_wa = percent_rmse(&exact, &wa);
    let err_wf = percent_rmse(&exact, &wf_vals);
    assert!(err_wa < 25.0, "W_A %RMSE {err_wa}");
    assert!(err_wf < 60.0, "W_F %RMSE {err_wf}");
    for v in &wf_vals {
        assert!(
            (-1.0..=1.0).contains(v),
            "W_F correlation out of range: {v}"
        );
    }
}

#[test]
fn degenerate_data_is_survivable_everywhere() {
    // Constant series + duplicated series: every stage must stay finite
    // and total.
    let m = 40;
    let mut cols: Vec<Vec<f64>> = vec![
        vec![5.0; m],                                     // constant
        (0..m).map(|i| (i as f64 * 0.3).sin()).collect(), // normal
    ];
    cols.push(cols[1].clone()); // exact duplicate
    cols.push((0..m).map(|i| i as f64).collect());
    let data = DataMatrix::from_series(cols);
    let affine = Symex::new(SymexParams {
        afclst: affinity::core::afclst::AfclstParams {
            k: 2,
            gamma_max: 8,
            delta_min: 0,
            seed: 3,
        },
        ..Default::default()
    })
    .run(&data)
    .unwrap();
    let engine = MecEngine::new(&data, &affine);
    for measure in PairwiseMeasure::ALL {
        for v in engine.pairwise_all(measure).expect("full affine set") {
            assert!(v.is_finite(), "{} produced {v}", measure.name());
        }
    }
    // Correlation with the constant series is 0 by convention, and the
    // duplicate pair correlates to ~1.
    let rho_dup = engine
        .pair_value(PairwiseMeasure::Correlation, SequencePair::new(1, 2))
        .unwrap();
    assert!((rho_dup - 1.0).abs() < 1e-6, "duplicate rho {rho_dup}");
    let rho_const = engine
        .pair_value(PairwiseMeasure::Correlation, SequencePair::new(0, 1))
        .unwrap();
    assert_eq!(rho_const, 0.0);
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
    let res = index
        .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, 0.99)
        .unwrap();
    assert!(res.contains(&SequencePair::new(1, 2)));
}

/// Series 0 is constant; the rest are noisy affine images of a shared
/// sinusoid, so the pivots anchored at series 0 have a zero α.
fn constant_series_data() -> DataMatrix {
    let m = 48;
    let mut columns: Vec<Vec<f64>> = vec![vec![3.5; m]];
    for v in 1..24usize {
        columns.push(
            (0..m)
                .map(|i| {
                    let t = i as f64 * 0.21;
                    t.sin() * (1.0 + v as f64 * 0.1) + v as f64 + (i as f64 * 0.77).cos() * 0.01
                })
                .collect(),
        );
    }
    DataMatrix::from_series(columns)
}

#[test]
fn edge_thresholds_answer_alike_indexed_and_scanned() {
    // NaN, infinities, signed zeros and extreme magnitudes: the index
    // must select exactly what the fallback scan selects (a NaN bound
    // selects nothing), and fail with the same error text.
    let measures = [
        "covariance",
        "dot",
        "correlation",
        "cosine",
        "dice",
        "mean",
        "median",
    ];
    let thresholds = ["NaN", "inf", "-inf", "0", "-0", "1e308", "-1e308", "5e-324"];
    let answer = |session: &Session, stmt: &str| match session.execute(stmt) {
        Ok(out) => {
            let mut lines: Vec<String> = out.to_string().lines().map(String::from).collect();
            lines.sort();
            lines
        }
        Err(e) => vec![format!("error: {e}")],
    };
    for data in [
        sensor_dataset(&SensorConfig::reduced(18, 48)),
        constant_series_data(),
    ] {
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let indexed = Session::new(&data, &affine, &Measure::EXTENDED).unwrap();
        let scanned = Session::new(&data, &affine, &[]).unwrap();
        let mut statements = 0;
        let mut disagreements = Vec::new();
        for m in measures {
            for t in thresholds {
                for stmt in [
                    format!("MET {m} > {t}"),
                    format!("MET {m} < {t}"),
                    format!("MER {m} BETWEEN -1 AND {t}"),
                    format!("MER {m} BETWEEN {t} AND {t}"),
                ] {
                    statements += 1;
                    if answer(&indexed, &stmt) != answer(&scanned, &stmt) {
                        disagreements.push(stmt);
                    }
                }
            }
        }
        assert_eq!(statements, 224);
        assert!(
            disagreements.is_empty(),
            "{} of {statements} statements disagree: {disagreements:?}",
            disagreements.len()
        );
    }
}
