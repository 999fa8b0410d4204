//! Quickstart: the full AFFINITY pipeline in ~60 lines.
//!
//! Generates a small sensor-like dataset, computes affine relationships
//! (AFCLST + SYMEX+), answers measure-computation queries through them,
//! and runs indexed threshold queries via SCAPE.
//!
//! Run with: `cargo run --release --example quickstart`

use affinity::prelude::*;

fn main() {
    // 1. Data: 64 series × 128 samples, with latent cluster structure.
    let data = sensor_dataset(&SensorConfig::reduced(64, 128));
    println!(
        "dataset: {} series x {} samples ({} sequence pairs)",
        data.series_count(),
        data.samples(),
        data.pair_count()
    );

    // 2. Cluster and compute affine relationships.
    let affine = Symex::new(SymexParams::default())
        .run(&data)
        .expect("SYMEX run");
    println!(
        "affine relationships: {} (pivot pairs: {}, clusters: {})",
        affine.len(),
        affine.pivots().len(),
        affine.clusters().k()
    );

    // 3. MEC queries: reconstruct measures without touching raw series.
    let engine = MecEngine::new(&data, &affine);
    let ids = [0, 5, 10, 15];
    let means = engine.location(LocationMeasure::Mean, &ids).unwrap();
    println!("means of {ids:?} (via affine relationships): {means:.3?}");

    let rho = engine.pairwise(PairwiseMeasure::Correlation, &ids).unwrap();
    println!(
        "correlation of ({}, {}): {:.4}",
        ids[0],
        ids[1],
        rho.get(0, 1)
    );

    // Error vs exact computation across ALL pairs (Eq. 16 of the paper).
    let exact = affinity::core::measures::pairwise_all(PairwiseMeasure::Covariance, &data);
    let approx = engine
        .pairwise_all(PairwiseMeasure::Covariance)
        .expect("full affine set");
    println!(
        "covariance %RMSE over {} pairs: {:.2e}",
        exact.len(),
        percent_rmse(&exact, &approx)
    );

    // 4. SCAPE: indexed threshold and range queries over any measure.
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
    let hot = index
        .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, 0.9)
        .unwrap();
    println!("pairs with correlation > 0.9: {}", hot.len());
    if let Some(p) = hot.first() {
        println!(
            "  e.g. ({}, {}) = {:.4}",
            data.label(p.u),
            data.label(p.v),
            engine.pair_value(PairwiseMeasure::Correlation, *p).unwrap()
        );
    }
    let banded = index
        .search_series(
            LocationMeasure::Median,
            Filter::Range { lo: 15.0, hi: 25.0 },
        )
        .unwrap();
    println!("series with median in (15, 25): {}", banded.len());
}
