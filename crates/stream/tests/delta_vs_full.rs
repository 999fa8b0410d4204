//! Delta-vs-full equivalence: after any sequence of ticks, a
//! delta-maintained model answers every MET/MER/count query identically
//! (within 1e-12; in fact bit-for-bit) to a from-scratch
//! `ScapeIndex::build` over the same model inputs — on both the sensor
//! and stock generators, with both a full-refit policy (zero tolerance)
//! and a partial-drift policy.

use affinity_core::measures::{LocationMeasure, Measure, PairwiseMeasure};
use affinity_data::generator::{sensor_dataset, stock_dataset, SensorConfig, StockConfig};
use affinity_data::DataMatrix;
use affinity_scape::{Filter, ScapeIndex, ThresholdOp};
use affinity_stream::{DeltaPolicy, StreamingConfig, StreamingEngine};

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

/// Compare the live (delta-maintained) index against a from-scratch
/// rebuild over the model's own `(data, affine)` inputs.
fn assert_equivalent(eng: &StreamingEngine, ctx: &str) {
    let model = eng.model().expect("model");
    let rebuilt = ScapeIndex::build(model.data(), model.affine(), &Measure::ALL).expect("rebuild");
    let live = model.index();
    for measure in [
        PairwiseMeasure::Covariance,
        PairwiseMeasure::DotProduct,
        PairwiseMeasure::Correlation,
    ] {
        for tau in [-0.5, -0.01, 0.0, 0.1, 0.9, 10.0] {
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                let a = sorted(live.threshold_pairs(measure, op, tau).unwrap());
                let b = sorted(rebuilt.threshold_pairs(measure, op, tau).unwrap());
                assert_eq!(a, b, "{ctx}: MET {} tau {tau} {op:?}", measure.name());
                assert_eq!(
                    live.count_threshold_pairs(measure, op, tau).unwrap(),
                    b.len(),
                    "{ctx}: count MET {} tau {tau} {op:?}",
                    measure.name()
                );
            }
        }
        for (lo, hi) in [(-1.0, 1.0), (0.0, 0.5), (-0.2, 0.01)] {
            let a = sorted(live.range_pairs(measure, lo, hi).unwrap());
            let b = sorted(rebuilt.range_pairs(measure, lo, hi).unwrap());
            assert_eq!(a, b, "{ctx}: MER {} ({lo}, {hi})", measure.name());
            assert_eq!(
                live.count_range_pairs(measure, lo, hi).unwrap(),
                b.len(),
                "{ctx}: count MER {} ({lo}, {hi})",
                measure.name()
            );
        }
    }
    for measure in LocationMeasure::ALL {
        for tau in [-1e6, 0.0, 15.0, 1e6] {
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                let filter = Filter::Threshold { op, tau };
                let a = sorted(live.search_series(measure, filter).unwrap());
                let b = sorted(rebuilt.search_series(measure, filter).unwrap());
                assert_eq!(a, b, "{ctx}: MET {} tau {tau} {op:?}", measure.name());
                assert_eq!(live.count_series(measure, filter).unwrap(), b.len());
            }
        }
        let filter = Filter::Range {
            lo: -100.0,
            hi: 100.0,
        };
        let a = sorted(live.search_series(measure, filter).unwrap());
        let b = sorted(rebuilt.search_series(measure, filter).unwrap());
        assert_eq!(a, b, "{ctx}: MER {}", measure.name());
    }
}

fn drive(data: &DataMatrix, policy: DeltaPolicy, ctx: &str) -> StreamingEngine {
    let n = data.series_count();
    let mut cfg = StreamingConfig::new(24);
    cfg.refresh_every = 6;
    cfg.delta = Some(policy);
    let mut eng = StreamingEngine::new(n, cfg);
    let mut checks = 0;
    for t in 0..data.samples() {
        let tick: Vec<f64> = (0..n).map(|v| data.series(v)[t]).collect();
        if eng.push(&tick).unwrap() && eng.refreshes().is_multiple_of(3) {
            assert_equivalent(&eng, ctx);
            checks += 1;
        }
    }
    assert_equivalent(&eng, ctx);
    assert!(checks > 0, "{ctx}: no refreshes were checked");
    eng
}

#[test]
fn delta_matches_full_rebuild_sensor() {
    let data = sensor_dataset(&SensorConfig::reduced(10, 140));
    // Zero tolerance: every series counts as drifted on every due
    // refresh, the whole relationship set is re-fitted through the
    // delta path each time.
    let eng = drive(
        &data,
        DeltaPolicy {
            drift_tolerance: 0.0,
            max_drift_fraction: 1.1,
            full_every: u64::MAX,
        },
        "sensor full-refit",
    );
    assert!(eng.delta_refreshes() > 0);
    assert_eq!(eng.full_rebuilds(), 1, "only the warm-up build is full");

    // Moderate tolerance: a subset of series drifts, partial re-fits.
    let eng = drive(
        &data,
        DeltaPolicy {
            drift_tolerance: 0.02,
            max_drift_fraction: 0.6,
            ..DeltaPolicy::default()
        },
        "sensor partial",
    );
    assert!(eng.refreshes() > 1);
}

#[test]
fn delta_matches_full_rebuild_stock() {
    let data = stock_dataset(&StockConfig::reduced(9, 140));
    let eng = drive(
        &data,
        DeltaPolicy {
            drift_tolerance: 0.0,
            max_drift_fraction: 1.1,
            full_every: u64::MAX,
        },
        "stock full-refit",
    );
    assert!(eng.delta_refreshes() > 0);

    let eng = drive(
        &data,
        DeltaPolicy {
            drift_tolerance: 0.05,
            max_drift_fraction: 0.5,
            ..DeltaPolicy::default()
        },
        "stock partial",
    );
    // Stock windows drift; both kinds of refresh should appear over a
    // long run, and equivalence must hold across the alternation.
    assert!(eng.refreshes() > 1);
}

#[test]
fn delta_disabled_rebuilds_every_refresh() {
    let data = sensor_dataset(&SensorConfig::reduced(8, 60));
    let n = data.series_count();
    let mut cfg = StreamingConfig::new(16);
    cfg.refresh_every = 8;
    cfg.delta = None;
    let mut eng = StreamingEngine::new(n, cfg);
    for t in 0..data.samples() {
        let tick: Vec<f64> = (0..n).map(|v| data.series(v)[t]).collect();
        eng.push(&tick).unwrap();
    }
    assert_eq!(eng.delta_refreshes(), 0);
    assert_eq!(eng.full_rebuilds(), eng.refreshes());
}
