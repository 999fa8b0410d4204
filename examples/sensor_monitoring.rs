//! Environmental-sensor monitoring: persistent storage plus SCAPE-indexed
//! alerting — the paper's sensor-network use case (Fig. 2 architecture).
//!
//! A campus deployment stores daily series in the columnar matrix store,
//! reloads them, builds the SCAPE index once, and then answers a stream
//! of operational queries without re-scanning raw data:
//!
//! * which sensor pairs co-vary strongly (covariance MET query)?
//! * which sensors have unusually high or low medians (L-measure MET)?
//! * which pairs sit inside a target correlation band (MER query)?
//!
//! Run with: `cargo run --release --example sensor_monitoring`

use affinity::prelude::*;
use std::time::Instant;

fn main() {
    // 134 sensors × 1 day at 2-minute sampling (reduced from the paper's
    // 670 series for example runtime).
    let data = sensor_dataset(&SensorConfig::reduced(134, 720));
    println!(
        "deployment: {} series x {} samples",
        data.series_count(),
        data.samples()
    );

    // Persist and reload through the columnar store (checksummed).
    let path = std::env::temp_dir().join("affinity_sensors.afn");
    MatrixStore::create(&path, &data).expect("store create");
    let store = MatrixStore::open(&path).expect("store open");
    let data = store.read_all().expect("store read");
    println!(
        "persisted + reloaded via {} ({} labels)\n",
        path.display(),
        store.labels().len()
    );

    // One-time preparation: relationships + index.
    let t0 = Instant::now();
    let affine = Symex::new(SymexParams::default())
        .run(&data)
        .expect("symex");
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
    println!(
        "prep: {} relationships, {} pivot nodes, built in {:.3?}",
        affine.len(),
        index.stats().pair_pivot_nodes,
        t0.elapsed()
    );
    let engine = MecEngine::new(&data, &affine);

    // Alert 1: strongly co-varying sensor pairs.
    let t0 = Instant::now();
    let covs = engine
        .pairwise_all(PairwiseMeasure::Covariance)
        .expect("full affine set");
    let mut sorted = covs.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let tau = sorted[sorted.len() * 95 / 100]; // 95th percentile
    let co_moving = index
        .threshold_pairs(PairwiseMeasure::Covariance, ThresholdOp::Greater, tau)
        .unwrap();
    println!(
        "\ncovariance > {tau:.3} (95th pct): {} pairs, answered in {:.3?}",
        co_moving.len(),
        t0.elapsed()
    );

    // Alert 2: sensors with out-of-band medians.
    let medians = engine.location_all(LocationMeasure::Median);
    let mean_med = medians.iter().sum::<f64>() / medians.len() as f64;
    let high = index
        .search_series(
            LocationMeasure::Median,
            Filter::Threshold {
                op: ThresholdOp::Greater,
                tau: mean_med + 5.0,
            },
        )
        .unwrap();
    let low = index
        .search_series(
            LocationMeasure::Median,
            Filter::Threshold {
                op: ThresholdOp::Less,
                tau: mean_med - 5.0,
            },
        )
        .unwrap();
    println!(
        "median alerts: {} high, {} low (band centre {mean_med:.2})",
        high.len(),
        low.len()
    );
    for v in high.iter().take(5) {
        println!("  high: {} (median {:.2})", data.label(*v), medians[*v]);
    }

    // Alert 3: pairs inside a target correlation band.
    let t0 = Instant::now();
    let band = index
        .range_pairs(PairwiseMeasure::Correlation, 0.7, 0.9)
        .unwrap();
    println!(
        "correlation in (0.7, 0.9): {} pairs, answered in {:.3?}",
        band.len(),
        t0.elapsed()
    );

    std::fs::remove_file(&path).ok();
}
