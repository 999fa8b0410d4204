//! Head-to-head MET/MER screening: the four methods of the paper's
//! evaluation answering the same threshold queries.
//!
//! * `W_N`    — compute each measure from raw series, then filter;
//! * `W_A`    — compute through affine relationships, then filter;
//! * `W_F`    — DFT sketch approximation (correlation only);
//! * `SCAPE`  — indexed search with modified thresholds.
//!
//! A miniature of the paper's Fig. 15/16, printed as a table.
//!
//! Run with: `cargo run --release --example threshold_screening`

use affinity::prelude::*;
use std::time::Instant;

fn main() {
    let data = sensor_dataset(&SensorConfig::reduced(100, 240));
    println!(
        "dataset: {} series, {} pairs\n",
        data.series_count(),
        data.pair_count()
    );

    // Setup costs, reported separately (the paper's W_A numbers include
    // SYMEX+ time; SCAPE additionally pays index construction).
    let t0 = Instant::now();
    let affine = Symex::new(SymexParams::default())
        .run(&data)
        .expect("symex");
    let t_symex = t0.elapsed();
    let t0 = Instant::now();
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
    let t_index = t0.elapsed();
    let t0 = Instant::now();
    let wf = DftExecutor::new(&data);
    let t_wf = t0.elapsed();
    println!("setup: SYMEX+ {t_symex:.3?}, SCAPE build {t_index:.3?}, W_F sketches {t_wf:.3?}\n");

    let wn = NaiveExecutor::new(&data);
    let wa = AffineExecutor::new(&data, &affine);

    println!(
        "{:<34} {:>12} {:>12} {:>12} {:>12} {:>9}",
        "query", "W_N", "W_A", "W_F", "SCAPE", "|result|"
    );

    // MET: correlation > τ, for several τ.
    for tau in [0.5, 0.8, 0.95] {
        let t0 = Instant::now();
        let r_n = wn.met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau);
        let d_n = t0.elapsed();
        let t0 = Instant::now();
        let _r_a = wa.met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau);
        let d_a = t0.elapsed();
        let t0 = Instant::now();
        let _r_f = wf.met_pairs(ThresholdOp::Greater, tau);
        let d_f = t0.elapsed();
        let t0 = Instant::now();
        let r_s = index
            .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
            .unwrap();
        let d_s = t0.elapsed();
        println!(
            "{:<34} {:>12.3?} {:>12.3?} {:>12.3?} {:>12.3?} {:>9}",
            format!("MET correlation > {tau}"),
            d_n,
            d_a,
            d_f,
            d_s,
            r_s.len()
        );
        assert!(r_s.len() <= r_n.len() + data.pair_count() / 10);
    }

    // MET: covariance > τ (no W_F — it only handles correlation).
    let t0 = Instant::now();
    let _ = wn.met_pairs(PairwiseMeasure::Covariance, ThresholdOp::Greater, 0.1);
    let d_n = t0.elapsed();
    let t0 = Instant::now();
    let _ = wa.met_pairs(PairwiseMeasure::Covariance, ThresholdOp::Greater, 0.1);
    let d_a = t0.elapsed();
    let t0 = Instant::now();
    let r_s = index
        .threshold_pairs(PairwiseMeasure::Covariance, ThresholdOp::Greater, 0.1)
        .unwrap();
    let d_s = t0.elapsed();
    println!(
        "{:<34} {:>12.3?} {:>12.3?} {:>12} {:>12.3?} {:>9}",
        "MET covariance > 0.1",
        d_n,
        d_a,
        "-",
        d_s,
        r_s.len()
    );

    // MER: correlation in (0.6, 0.9).
    let t0 = Instant::now();
    let _ = wn.mer_pairs(PairwiseMeasure::Correlation, 0.6, 0.9);
    let d_n = t0.elapsed();
    let t0 = Instant::now();
    let _ = wa.mer_pairs(PairwiseMeasure::Correlation, 0.6, 0.9);
    let d_a = t0.elapsed();
    let t0 = Instant::now();
    let _ = wf.mer_pairs(0.6, 0.9);
    let d_f = t0.elapsed();
    let t0 = Instant::now();
    let r_s = index
        .range_pairs(PairwiseMeasure::Correlation, 0.6, 0.9)
        .unwrap();
    let d_s = t0.elapsed();
    println!(
        "{:<34} {:>12.3?} {:>12.3?} {:>12.3?} {:>12.3?} {:>9}",
        "MER correlation in (0.6, 0.9)",
        d_n,
        d_a,
        d_f,
        d_s,
        r_s.len()
    );

    // MET on a location measure: median (W_F not applicable).
    let medians: Vec<f64> = (0..data.series_count())
        .map(|v| affinity::core::measures::median(data.series(v)))
        .collect();
    let mid = medians.iter().sum::<f64>() / medians.len() as f64;
    let t0 = Instant::now();
    let _ = wn.met_series(LocationMeasure::Median, ThresholdOp::Greater, mid);
    let d_n = t0.elapsed();
    let t0 = Instant::now();
    let _ = wa.met_series(LocationMeasure::Median, ThresholdOp::Greater, mid);
    let d_a = t0.elapsed();
    let t0 = Instant::now();
    let r_s = index
        .search_series(
            LocationMeasure::Median,
            Filter::Threshold {
                op: ThresholdOp::Greater,
                tau: mid,
            },
        )
        .unwrap();
    let d_s = t0.elapsed();
    println!(
        "{:<34} {:>12.3?} {:>12.3?} {:>12} {:>12.3?} {:>9}",
        format!("MET median > {mid:.2}"),
        d_n,
        d_a,
        "-",
        d_s,
        r_s.len()
    );
}
