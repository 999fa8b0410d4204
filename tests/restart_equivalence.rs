//! End-to-end restart equivalence: build a model, persist it, keep
//! streaming (journaled delta refreshes), kill the process (drop), and
//! resume. The recovered engine must answer MET, MER and QL statements
//! **bit-identically** to an engine that ran the same tick stream
//! uninterrupted — on both paper workloads (sensor and stock).
//!
//! This is the user-facing statement of the persistence contract: a
//! crash between refreshes is invisible in query answers — for a
//! monolithic server and for a shard server, which resumes the same
//! journal and re-cuts its shards from the recovered model.

use affinity::core::measures::{Measure, PairwiseMeasure};
use affinity::data::generator::{sensor_dataset, stock_dataset, SensorConfig, StockConfig};
use affinity::data::DataMatrix;
use affinity::par::ThreadPool;
use affinity::ql::Session;
use affinity::scape::ThresholdOp;
use affinity::shard::{ShardPlan, ShardedModel};
use affinity::stream::{open_model, Model, StreamingConfig, StreamingEngine};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WINDOW: usize = 24;
const PERSIST_AT: usize = 40; // ticks before the snapshot
const TOTAL: usize = 64; // ticks in the whole run

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "affinity-restart-equivalence-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn cfg() -> StreamingConfig {
    let mut c = StreamingConfig::new(WINDOW);
    c.refresh_every = 6;
    if let Some(d) = c.delta.as_mut() {
        d.drift_tolerance = 1e-9; // every refresh drifts ⇒ journaled deltas
        d.max_drift_fraction = 1.0;
        d.full_every = 1000; // keep the run on the journal
    }
    c
}

fn push_ticks(engine: &mut StreamingEngine, data: &DataMatrix, from: usize, to: usize) {
    let n = data.series_count();
    for t in from..to {
        let tick: Vec<f64> = (0..n).map(|v| data.series(v)[t]).collect();
        engine.push(&tick).unwrap();
    }
}

fn assert_met_mer_bit_equal(a: &Model, b: &Model) {
    for pm in PairwiseMeasure::ALL {
        let (ta, tb) = (
            a.index()
                .threshold_pairs(pm, ThresholdOp::Greater, 0.5)
                .unwrap(),
            b.index()
                .threshold_pairs(pm, ThresholdOp::Greater, 0.5)
                .unwrap(),
        );
        assert_eq!(ta, tb, "{pm:?}: MET answers diverge");
        let (ra, rb) = (
            a.index().range_pairs(pm, -2.0, 2.0).unwrap(),
            b.index().range_pairs(pm, -2.0, 2.0).unwrap(),
        );
        assert_eq!(ra, rb, "{pm:?}: MER answers diverge");
        // MEC whole-sweep values, compared bit-for-bit.
        let (va, vb) = (
            a.mec_engine().pairwise_all(pm).unwrap(),
            b.mec_engine().pairwise_all(pm).unwrap(),
        );
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(&vb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{pm:?}: MEC values diverge");
        }
    }
}

const STATEMENTS: &[&str] = &[
    "MET correlation > 0.6",
    "MER covariance BETWEEN 0 AND 10",
    "MEC mean OF S0, S1, S2",
    "MEC correlation OF S0, S1, S2, S3",
];

/// Run the stream twice: once uninterrupted, once persisted to `dir` at
/// `PERSIST_AT`, crashed at `TOTAL`, and resumed from its journal.
fn uninterrupted_and_resumed(
    data: &DataMatrix,
    dir: &Path,
    tag: &str,
) -> (StreamingEngine, StreamingEngine) {
    let mut uninterrupted = StreamingEngine::new(data.series_count(), cfg());
    push_ticks(&mut uninterrupted, data, 0, TOTAL);

    let mut crashed = StreamingEngine::new(data.series_count(), cfg());
    push_ticks(&mut crashed, data, 0, PERSIST_AT);
    crashed.persist_to(dir).unwrap();
    push_ticks(&mut crashed, data, PERSIST_AT, TOTAL);
    let journaled = crashed.delta_refreshes();
    drop(crashed); // kill -9

    let (resumed, report) = StreamingEngine::resume(cfg(), dir).unwrap();
    assert!(
        report.replayed_records > 0,
        "{tag}: run must have journaled"
    );
    assert_eq!(resumed.delta_refreshes(), journaled, "{tag}");
    (uninterrupted, resumed)
}

fn check_restart_equivalence(data: &DataMatrix, tag: &str) {
    let dir_crashed = tmp_dir(&format!("{tag}-crashed"));
    let dir_baseline = tmp_dir(&format!("{tag}-baseline"));
    let (mut uninterrupted, resumed) = uninterrupted_and_resumed(data, &dir_crashed, tag);

    // Model-level equivalence, then answer-level equivalence.
    let (a, b) = (uninterrupted.model().unwrap(), resumed.model().unwrap());
    assert_eq!(a.affine().to_bytes(), b.affine().to_bytes(), "{tag}");
    assert_eq!(a.index().to_bytes(), b.index().to_bytes(), "{tag}");
    assert_met_mer_bit_equal(a, b);

    // QL equivalence: a session over the crash-recovered model answers
    // every statement with byte-identical output to a session over the
    // uninterrupted engine's model (persisted fresh, then opened).
    uninterrupted.persist_to(&dir_baseline).unwrap();
    let (baseline_model, _) = open_model(&dir_baseline).unwrap();
    let (crashed_model, _) = open_model(&dir_crashed).unwrap();
    let baseline_session = Session::open_snapshot(&baseline_model, Vec::new()).unwrap();
    let crashed_session = Session::open_snapshot(&crashed_model, Vec::new()).unwrap();
    for stmt in STATEMENTS {
        let expected = format!("{}", baseline_session.execute(stmt).unwrap());
        let recovered = format!("{}", crashed_session.execute(stmt).unwrap());
        assert_eq!(
            expected, recovered,
            "{tag}: `{stmt}` diverges after restart"
        );
    }

    fs::remove_dir_all(&dir_crashed).unwrap();
    fs::remove_dir_all(&dir_baseline).unwrap();
}

/// A shard server resumes through the same journal and then re-cuts the
/// recovered global model along the shape-derived `K`-shard plan. Every
/// shard of that cut must match the never-crashed server's shard
/// byte-for-byte, and so must every answer through the merge layer.
fn check_sharded_restart_equivalence(data: &DataMatrix, tag: &str, k: usize) {
    let dir = tmp_dir(&format!("{tag}-shard"));
    let (uninterrupted, resumed) = uninterrupted_and_resumed(data, &dir, tag);
    let cut = |engine: &StreamingEngine| {
        let model = engine.model().unwrap();
        ShardedModel::from_global(
            model.data(),
            model.affine(),
            ShardPlan::blocked(data.series_count(), k),
            &Measure::EXTENDED,
            Arc::new(ThreadPool::new(1)),
        )
        .unwrap()
    };
    let (model_a, model_b) = (cut(&uninterrupted), cut(&resumed));
    for (i, (sa, sb)) in model_a.shards().iter().zip(model_b.shards()).enumerate() {
        assert_eq!(
            sa.affine().to_bytes(),
            sb.affine().to_bytes(),
            "{tag}: shard {i} affine bytes"
        );
        assert_eq!(
            sa.index().to_bytes(),
            sb.index().to_bytes(),
            "{tag}: shard {i} index bytes"
        );
    }

    let session_a = Session::from_sharded(&model_a, Vec::new()).unwrap();
    let session_b = Session::from_sharded(&model_b, Vec::new()).unwrap();
    for stmt in STATEMENTS {
        assert_eq!(
            format!("{}", session_a.execute(stmt).unwrap()),
            format!("{}", session_b.execute(stmt).unwrap()),
            "{tag}: `{stmt}` diverges after sharded restart"
        );
    }

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sensor_workload_restart_is_invisible() {
    let data = sensor_dataset(&SensorConfig::reduced(10, TOTAL));
    check_restart_equivalence(&data, "sensor");
}

#[test]
fn sensor_workload_sharded_restart_is_invisible() {
    let data = sensor_dataset(&SensorConfig::reduced(10, TOTAL));
    check_sharded_restart_equivalence(&data, "sensor", 3);
}

#[test]
fn stock_workload_sharded_restart_is_invisible() {
    let data = stock_dataset(&StockConfig::reduced(8, TOTAL));
    check_sharded_restart_equivalence(&data, "stock", 2);
}

#[test]
fn stock_workload_restart_is_invisible() {
    let data = stock_dataset(&StockConfig::reduced(8, TOTAL));
    check_restart_equivalence(&data, "stock");
}
