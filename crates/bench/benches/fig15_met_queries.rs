//! Fig. 15 — MET (measure threshold) query efficiency on sensor-data.
//!
//! Four panels: (a) correlation with W_N/W_A/W_F/SCAPE, (b) covariance,
//! (c) median (series-level), (d) dot product. The x-axis sweeps the
//! result-set size by moving the threshold; times are per query on
//! pre-built structures (relationships for W_A, sketches for W_F, index
//! for SCAPE), while W_N recomputes from scratch per query — exactly the
//! paper's setup. Paper shape: SCAPE is orders of magnitude faster
//! everywhere except median, where only O(n) relationships exist.

use affinity_bench::{
    default_symex, fmt_secs, header, quantile_thresholds, sensor, threads_from_env, time, Scale,
};
use affinity_core::measures::{self, LocationMeasure, Measure, PairwiseMeasure};
use affinity_query::{AffineExecutor, DftExecutor, NaiveExecutor};
use affinity_scape::{Filter, ScapeIndex, ThresholdOp};

const FRACTIONS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 0.999];

fn main() {
    let scale = Scale::from_env();
    header("Fig. 15", "MET query efficiency, sensor-data", scale);
    let data = sensor(scale);
    println!(
        "dataset: {} series, {} pairs; threads = {} (AFFINITY_THREADS, 0 = auto -> {})",
        data.series_count(),
        data.pair_count(),
        threads_from_env(),
        affinity_par::resolve_threads(threads_from_env())
    );

    let (affine, t_setup) = time(|| default_symex().run(&data).expect("symex"));
    let (index, t_index) =
        time(|| ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index"));
    let (wf, t_wf) = time(|| DftExecutor::new(&data));
    println!(
        "setup (excluded from per-query times, as in the paper): SYMEX+ {}, SCAPE build {}, W_F sketches {}",
        fmt_secs(t_setup),
        fmt_secs(t_index),
        fmt_secs(t_wf)
    );
    let wn = NaiveExecutor::new(&data);
    let wa = AffineExecutor::new(&data, &affine);

    // Panel (a): correlation — all four methods.
    println!("\n(a) correlation coefficient (threshold)");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "|result|", "W_N", "W_A", "W_F", "SCAPE", "speedupN"
    );
    let corr_values = measures::pairwise_all(PairwiseMeasure::Correlation, &data);
    for tau in quantile_thresholds(&corr_values, &FRACTIONS) {
        let (r_n, t_n) =
            time(|| wn.met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau));
        let (_, t_a) =
            time(|| wa.met_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau));
        let (_, t_f) = time(|| wf.met_pairs(ThresholdOp::Greater, tau));
        let (r_s, t_s) = time(|| {
            index
                .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
                .unwrap()
        });
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>12} {:>9.0}x",
            r_s.len(),
            fmt_secs(t_n),
            fmt_secs(t_a),
            fmt_secs(t_f),
            fmt_secs(t_s),
            t_n / t_s
        );
        let _ = r_n;
    }

    // Panels (b) and (d): covariance and dot product — no W_F.
    for (panel, measure) in [
        ("(b) covariance (threshold)", PairwiseMeasure::Covariance),
        ("(d) dot product (threshold)", PairwiseMeasure::DotProduct),
    ] {
        println!("\n{panel}");
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>10}",
            "|result|", "W_N", "W_A", "SCAPE", "speedupN"
        );
        let values = measures::pairwise_all(measure, &data);
        for tau in quantile_thresholds(&values, &FRACTIONS) {
            let (_, t_n) = time(|| wn.met_pairs(measure, ThresholdOp::Greater, tau));
            let (_, t_a) = time(|| wa.met_pairs(measure, ThresholdOp::Greater, tau));
            let (r_s, t_s) = time(|| {
                index
                    .threshold_pairs(measure, ThresholdOp::Greater, tau)
                    .unwrap()
            });
            println!(
                "{:>10} {:>12} {:>12} {:>12} {:>9.0}x",
                r_s.len(),
                fmt_secs(t_n),
                fmt_secs(t_a),
                fmt_secs(t_s),
                t_n / t_s
            );
        }
    }

    // Panel (c): median — series-level query, O(n) relationships.
    println!("\n(c) median (threshold, series-level)");
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "|result|", "W_N", "W_A", "SCAPE", "speedupN"
    );
    let medians = measures::location_all(LocationMeasure::Median, &data);
    for tau in quantile_thresholds(&medians, &FRACTIONS) {
        let (_, t_n) = time(|| wn.met_series(LocationMeasure::Median, ThresholdOp::Greater, tau));
        let (_, t_a) = time(|| wa.met_series(LocationMeasure::Median, ThresholdOp::Greater, tau));
        let (r_s, t_s) = time(|| {
            index
                .search_series(
                    LocationMeasure::Median,
                    Filter::Threshold {
                        op: ThresholdOp::Greater,
                        tau,
                    },
                )
                .unwrap()
        });
        println!(
            "{:>10} {:>12} {:>12} {:>12} {:>9.0}x",
            r_s.len(),
            fmt_secs(t_n),
            fmt_secs(t_a),
            fmt_secs(t_s),
            t_n / t_s
        );
    }
    println!("\nshape check: SCAPE wins by orders of magnitude on pairwise measures; median's advantage is modest (only n relationships) — both as in the paper (Table 4: median speedup 5x vs 41-160x elsewhere).");
}
