//! Cross-shard merge edge cases.
//!
//! The equivalence oracle (`tests/shard_equivalence.rs` at the
//! workspace root) sweeps randomized plans; this suite pins the
//! degenerate shapes by hand — empty shards, a single-series shard,
//! everything in one shard of many.

use affinity_core::prelude::*;
use affinity_data::generator::{sensor_dataset, SensorConfig};
use affinity_data::{DataMatrix, SeriesId};
use affinity_par::ThreadPool;
use affinity_scape::{ScapeIndex, ThresholdOp};
use affinity_shard::{ShardPlan, ShardedModel};
use std::sync::Arc;

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

/// Full query-surface comparison of a sharded model against the global
/// engine + index it partitions.
fn assert_matches_global(tag: &str, engine: &MecEngine, index: &ScapeIndex, model: &ShardedModel) {
    let never = || false;
    for measure in [PairwiseMeasure::Correlation, PairwiseMeasure::Covariance] {
        for tau in [-0.5, 0.0, 0.5] {
            assert_eq!(
                index
                    .threshold_pairs(measure, ThresholdOp::Greater, tau)
                    .unwrap(),
                model
                    .threshold_pairs_with(measure, ThresholdOp::Greater, tau, &never)
                    .unwrap(),
                "{tag}: {} > {tau}",
                measure.name()
            );
        }
        assert_bits_eq(
            &engine.pairwise_all(measure).unwrap(),
            &model.pairwise_all(measure).unwrap(),
            &format!("{tag}: {}", measure.name()),
        );
    }
    let ids: Vec<SeriesId> = (0..model.series_count()).collect();
    for measure in [LocationMeasure::Mean, LocationMeasure::Median] {
        assert_bits_eq(
            &engine.location(measure, &ids).unwrap(),
            &model.location(measure, &ids).unwrap(),
            &format!("{tag}: {}", measure.name()),
        );
        assert_eq!(
            index
                .threshold_series(measure, ThresholdOp::Greater, 0.0)
                .unwrap(),
            model
                .threshold_series(measure, ThresholdOp::Greater, 0.0)
                .unwrap(),
            "{tag}: {}",
            measure.name()
        );
    }
}

fn fixture() -> (DataMatrix, AffineSet) {
    let data = sensor_dataset(&SensorConfig::reduced(14, 48));
    let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
    (data, affine)
}

fn partition(data: &DataMatrix, affine: &AffineSet, plan: ShardPlan) -> ShardedModel {
    ShardedModel::from_global(
        data,
        affine,
        plan,
        &Measure::ALL,
        Arc::new(ThreadPool::new(2)),
    )
    .unwrap()
}

#[test]
fn empty_shards_merge_exactly() {
    let (data, affine) = fixture();
    let engine = MecEngine::new(&data, &affine);
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
    // Everything in shard 0 of 3: shards 1 and 2 own nothing, hold no
    // pivots, and must contribute nothing (not garbage) to every merge.
    let n = data.series_count();
    let plan = ShardPlan::from_assignments(vec![0; n], 3).unwrap();
    let model = partition(&data, &affine, plan);
    assert_eq!(model.shards().len(), 3);
    assert_eq!(model.shards()[1].affine().len(), 0, "empty shard has rels");
    assert_eq!(model.shards()[2].owned().len(), 0);
    assert_matches_global("all-in-one-of-3", &engine, &index, &model);
}

#[test]
fn single_series_shard_merges_exactly() {
    let (data, affine) = fixture();
    let engine = MecEngine::new(&data, &affine);
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
    let n = data.series_count();
    // Series 0 alone in shard 1; the rest in shard 0.
    let mut assignments = vec![0u32; n];
    assignments[0] = 1;
    let plan = ShardPlan::from_assignments(assignments, 2).unwrap();
    let model = partition(&data, &affine, plan);
    assert_eq!(model.shards()[1].owned(), &[0]);
    assert_matches_global("single-series-shard", &engine, &index, &model);
}

#[test]
fn one_shard_per_series_merges_exactly() {
    let (data, affine) = fixture();
    let engine = MecEngine::new(&data, &affine);
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
    let n = data.series_count();
    // The maximally fragmented plan: every series its own shard.
    let assignments: Vec<u32> = (0..n as u32).collect();
    let plan = ShardPlan::from_assignments(assignments, n).unwrap();
    let model = partition(&data, &affine, plan);
    assert_eq!(model.shards().len(), n);
    assert_matches_global("one-per-series", &engine, &index, &model);
}
