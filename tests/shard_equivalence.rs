//! Shard-vs-global equivalence oracle: a model partitioned into shards
//! (along cluster cuts or by *adversarial* random assignment) must
//! answer every MET/MER/MEC/count/QL query **bit-for-bit** identically
//! to the unsharded model it was partitioned from, for every shard
//! count — and the K=1 degenerate partition must be byte-identical to
//! today's monolithic model.
//!
//! This is the proof obligation that makes sharding a pure scale-out
//! knob: no approximation, no reordering, no float drift anywhere in
//! the merge layer.

use affinity::core::mec::MecEngine;
use affinity::core::symex::AffineSet;
use affinity::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::sync::OnceLock;

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn assert_slice_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(bits(*x), bits(*y), "{what}[{i}]: {x} vs {y}");
    }
}

/// Thresholds spanning each measure's typical range.
fn taus(measure: PairwiseMeasure) -> Vec<f64> {
    match measure {
        PairwiseMeasure::Correlation | PairwiseMeasure::Cosine | PairwiseMeasure::Dice => {
            vec![-0.5, 0.0, 0.5, 0.9, 0.99]
        }
        _ => vec![-1.0, 0.0, 0.01, 0.5, 10.0],
    }
}

fn workloads() -> Vec<(&'static str, DataMatrix)> {
    vec![
        ("sensor", sensor_dataset(&SensorConfig::reduced(20, 64))),
        ("stock", stock_dataset(&StockConfig::reduced(24, 80))),
    ]
}

/// Every query surface of `model` against the global `engine`/`index`
/// it was partitioned from — bit-for-bit.
fn assert_model_matches_global(
    tag: &str,
    engine: &MecEngine,
    index: &ScapeIndex,
    model: &affinity::shard::ShardedModel,
) {
    let never = || false;
    // MET / MER over pair measures, with their counts.
    for measure in PairwiseMeasure::ALL {
        for &tau in &taus(measure) {
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                let filter = Filter::Threshold { op, tau };
                let a = index.threshold_pairs(measure, op, tau).unwrap();
                let b = model.search_pairs(measure, filter, &never).unwrap();
                assert_eq!(a, b, "{tag}: {} {op:?} {tau}", measure.name());
                assert_eq!(
                    index.count_threshold_pairs(measure, op, tau).unwrap(),
                    model.count_pairs(measure, filter).unwrap(),
                    "{tag}: count {} {op:?} {tau}",
                    measure.name()
                );
            }
        }
        let filter = Filter::Range {
            lo: -0.25,
            hi: 0.75,
        };
        let a = index.range_pairs(measure, -0.25, 0.75).unwrap();
        let b = model.search_pairs(measure, filter, &never).unwrap();
        assert_eq!(a, b, "{tag}: {} range", measure.name());
        assert_eq!(
            index.count_range_pairs(measure, -0.25, 0.75).unwrap(),
            model.count_pairs(measure, filter).unwrap(),
            "{tag}: count {} range",
            measure.name()
        );
    }
    // MET / MER over location measures, with their counts.
    for measure in LocationMeasure::ALL {
        for &tau in &[-1e18, 0.0, 100.0] {
            let filter = Filter::Threshold {
                op: ThresholdOp::Greater,
                tau,
            };
            let a = index.search_series(measure, filter).unwrap();
            let b = model.search_series(measure, filter).unwrap();
            assert_eq!(a, b, "{tag}: {} > {tau}", measure.name());
            assert_eq!(
                index.count_series(measure, filter).unwrap(),
                model.count_series(measure, filter).unwrap(),
                "{tag}: count {} > {tau}",
                measure.name()
            );
        }
        let filter = Filter::Range { lo: -1e3, hi: 1e3 };
        let a = index.search_series(measure, filter).unwrap();
        let b = model.search_series(measure, filter).unwrap();
        assert_eq!(a, b, "{tag}: {} range", measure.name());
        assert_eq!(
            index.count_series(measure, filter).unwrap(),
            model.count_series(measure, filter).unwrap(),
            "{tag}: count {} range",
            measure.name()
        );
    }
    // MEC: every pair value of every measure, and every location value.
    for measure in PairwiseMeasure::ALL {
        let a = engine.pairwise_all(measure).unwrap();
        let b = model.pairwise_all(measure).unwrap();
        assert_slice_bits_eq(&a, &b, &format!("{tag}: {}", measure.name()));
    }
    let n = model.series_count();
    let ids: Vec<SeriesId> = (0..n).collect();
    for measure in LocationMeasure::ALL {
        let a = engine.location(measure, &ids).unwrap();
        let b = model.location(measure, &ids).unwrap();
        assert_slice_bits_eq(&a, &b, &format!("{tag}: {}", measure.name()));
    }
    // Subset MEC matrix (diagonal conventions included).
    let subset: Vec<SeriesId> = (0..n).step_by(3).collect();
    for measure in [PairwiseMeasure::Covariance, PairwiseMeasure::DotProduct] {
        let a = engine.pairwise(measure, &subset).unwrap();
        let b = model.pairwise(measure, &subset).unwrap();
        assert_slice_bits_eq(
            a.as_slice(),
            b.as_slice(),
            &format!("{tag}: subset {}", measure.name()),
        );
    }
    // Canonical errors match the global engine's.
    let bad = n + 3;
    assert_eq!(
        engine
            .location(LocationMeasure::Mean, &[bad])
            .unwrap_err()
            .to_string(),
        model
            .location(LocationMeasure::Mean, &[bad])
            .unwrap_err()
            .to_string(),
        "{tag}: unknown-series error"
    );
}

/// QL outputs of a sharded session against a global one.
fn assert_sessions_agree(tag: &str, global: &Session, sharded: &Session, l0: &str, l1: &str) {
    for stmt in [
        "MET correlation > 0.9".to_string(),
        "MET correlation < 0.2".to_string(),
        "MER covariance BETWEEN -0.5 AND 0.5".to_string(),
        "MET mean > 0".to_string(),
        "MER median BETWEEN -1e6 AND 1e6".to_string(),
        format!("MEC correlation OF {l0}, {l1}"),
        format!("MEC mean OF {l0}"),
        "MET dice > 0.8".to_string(),
        "MER cosine BETWEEN 0.5 AND 1.0".to_string(),
    ] {
        let a = global.execute(&stmt).unwrap();
        let b = sharded.execute(&stmt).unwrap();
        assert_eq!(a, b, "{tag}: `{stmt}`");
    }
}

#[test]
fn sharded_answers_match_global_for_every_shard_count() {
    for (name, data) in workloads() {
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let engine = MecEngine::new(&data, &affine);
        let index = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let global = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let l0 = data.label(0).to_string();
        let l1 = data.label(1).to_string();
        for k in [1usize, 2, 5] {
            let tag = format!("{name}/k={k}");
            let plan = ShardPlan::along_clusters(affine.clusters(), k);
            let model = ShardedModel::from_global(
                &data,
                &affine,
                plan,
                &Measure::ALL,
                Arc::new(ThreadPool::new(2)),
            )
            .unwrap();
            assert_eq!(model.shards().len(), k, "{tag}");
            assert_model_matches_global(&tag, &engine, &index, &model);
            let sharded = Session::from_sharded(&model, data.labels().to_vec()).unwrap();
            assert_sessions_agree(&tag, &global, &sharded, &l0, &l1);
        }
    }
}

/// The K=1 degenerate plan is not merely equivalent — the single
/// shard's affine set and index serialize to the **same bytes** as
/// today's monolithic model.
#[test]
fn single_shard_partition_is_byte_identical_to_global() {
    for (name, data) in workloads() {
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let index = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let model = ShardedModel::from_global(
            &data,
            &affine,
            ShardPlan::single(data.series_count()),
            &Measure::ALL,
            Arc::new(ThreadPool::new(2)),
        )
        .unwrap();
        let shard = &model.shards()[0];
        assert_eq!(
            affine.to_bytes(),
            shard.affine().to_bytes(),
            "{name}: affine bytes"
        );
        assert_eq!(
            index.to_bytes(),
            shard.index().to_bytes(),
            "{name}: index bytes"
        );
        assert_eq!(shard.owned().len(), data.series_count(), "{name}");
    }
}

/// Shared fixture for the adversarial-plan property: building the
/// global model once keeps the per-case cost to a partition + compare.
fn fixture() -> &'static (DataMatrix, AffineSet, MecEngine<'static>, ScapeIndex) {
    static FIXTURE: OnceLock<(DataMatrix, AffineSet, MecEngine<'static>, ScapeIndex)> =
        OnceLock::new();
    FIXTURE.get_or_init(|| {
        let data = stock_dataset(&StockConfig::reduced(18, 60));
        let data = Box::leak(Box::new(data));
        let affine = Symex::new(SymexParams::default()).run(data).unwrap();
        let affine_ref: &'static AffineSet = Box::leak(Box::new(affine.clone()));
        let engine = MecEngine::new(data, affine_ref);
        let index = ScapeIndex::build(data, affine_ref, &Measure::ALL).unwrap();
        (data.clone(), affine, engine, index)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Adversarial cut placements: a *random* series → shard map (which
    /// may scatter clusters across shards and leave shards empty) still
    /// answers bit-identically — exactness must come from the merge
    /// layer, not from friendly cluster-aligned cuts.
    #[test]
    fn adversarial_plans_answer_bit_identically(
        assignments in proptest::collection::vec(0u32..4u32, 18),
        k_extra in 0usize..2,
    ) {
        let (data, affine, engine, index) = fixture();
        let shards = 4 + k_extra; // trailing shards may own nothing
        let plan = ShardPlan::from_assignments(assignments.clone(), shards).unwrap();
        let model = ShardedModel::from_global(
            data,
            affine,
            plan,
            &Measure::ALL,
            Arc::new(ThreadPool::new(2)),
        )
        .unwrap();
        let tag = format!("plan {assignments:?}/{shards}");
        assert_model_matches_global(&tag, engine, index, &model);
        let global = Session::new(data, affine, &Measure::ALL).unwrap();
        let sharded = Session::from_sharded(&model, data.labels().to_vec()).unwrap();
        assert_sessions_agree(
            &tag,
            &global,
            &sharded,
            data.label(0),
            data.label(1),
        );
    }
}
