//! Table 4 — query processing speedups at maximum result size.
//!
//! SCAPE's speedup over W_N, W_A and (for correlation) W_F when the MET /
//! MER query returns the maximum-size result set, on sensor-data.
//!
//! Paper values for orientation:
//!   MET: correlation 59x/13.4x/32x, covariance 160x/21x,
//!        dot product 41x/35x, median 5x/1.1x
//!   MER: correlation 27x/6.4x/14x, covariance 155x/22x

use affinity_bench::{default_symex, header, sensor, time, Scale};
use affinity_core::measures::{self, LocationMeasure, Measure, PairwiseMeasure};
use affinity_query::{AffineExecutor, DftExecutor, NaiveExecutor};
use affinity_scape::{Filter, ScapeIndex, ThresholdOp};

/// Median of several timed repetitions (max-result queries are cheap for
/// the indexed path; single-shot timings would be noise).
fn timed_median<T>(mut f: impl FnMut() -> T, reps: usize) -> f64 {
    let mut times: Vec<f64> = (0..reps).map(|_| time(&mut f).1).collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

fn main() {
    let scale = Scale::from_env();
    header(
        "Table 4",
        "Speedups at maximum result size, sensor-data",
        scale,
    );
    let data = sensor(scale);
    let affine = default_symex().run(&data).expect("symex");
    let index = ScapeIndex::build(&data, &affine, &Measure::ALL).expect("index");
    let wn = NaiveExecutor::new(&data);
    let wa = AffineExecutor::new(&data, &affine);
    let wf = DftExecutor::new(&data);
    let reps = 3;

    // Thresholds below every value => maximum result set.
    let min_of = |m: PairwiseMeasure| {
        measures::pairwise_all(m, &data)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
            - 1.0
    };
    let med_min = measures::location_all(LocationMeasure::Median, &data)
        .into_iter()
        .fold(f64::INFINITY, f64::min)
        - 1.0;

    println!(
        "\n{:<6} {:<22} {:>8} {:>8} {:>8}",
        "query", "measure", "W_N", "W_A", "W_F"
    );

    // ---- MET ----
    for m in [
        PairwiseMeasure::Correlation,
        PairwiseMeasure::Covariance,
        PairwiseMeasure::DotProduct,
    ] {
        let tau = min_of(m);
        let t_s = timed_median(
            || index.threshold_pairs(m, ThresholdOp::Greater, tau).unwrap(),
            reps,
        );
        let t_n = timed_median(|| wn.met_pairs(m, ThresholdOp::Greater, tau), reps);
        let t_a = timed_median(|| wa.met_pairs(m, ThresholdOp::Greater, tau), reps);
        let wf_col = if m == PairwiseMeasure::Correlation {
            let t_f = timed_median(|| wf.met_pairs(ThresholdOp::Greater, tau), reps);
            format!("{:>7.1}x", t_f / t_s)
        } else {
            format!("{:>8}", "x")
        };
        println!(
            "{:<6} {:<22} {:>7.1}x {:>7.1}x {}",
            "MET",
            m.name(),
            t_n / t_s,
            t_a / t_s,
            wf_col
        );
    }
    {
        let t_s = timed_median(
            || {
                index
                    .search_series(
                        LocationMeasure::Median,
                        Filter::Threshold {
                            op: ThresholdOp::Greater,
                            tau: med_min,
                        },
                    )
                    .unwrap()
            },
            reps,
        );
        let t_n = timed_median(
            || wn.met_series(LocationMeasure::Median, ThresholdOp::Greater, med_min),
            reps,
        );
        let t_a = timed_median(
            || wa.met_series(LocationMeasure::Median, ThresholdOp::Greater, med_min),
            reps,
        );
        println!(
            "{:<6} {:<22} {:>7.1}x {:>7.1}x {:>8}",
            "MET",
            "median",
            t_n / t_s,
            t_a / t_s,
            "x"
        );
    }

    // ---- MER ----
    for m in [PairwiseMeasure::Correlation, PairwiseMeasure::Covariance] {
        let values = measures::pairwise_all(m, &data);
        let lo = values.iter().cloned().fold(f64::INFINITY, f64::min) - 1.0;
        let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max) + 1.0;
        let t_s = timed_median(|| index.range_pairs(m, lo, hi).unwrap(), reps);
        let t_n = timed_median(|| wn.mer_pairs(m, lo, hi), reps);
        let t_a = timed_median(|| wa.mer_pairs(m, lo, hi), reps);
        let wf_col = if m == PairwiseMeasure::Correlation {
            let t_f = timed_median(|| wf.mer_pairs(lo, hi), reps);
            format!("{:>7.1}x", t_f / t_s)
        } else {
            format!("{:>8}", "x")
        };
        println!(
            "{:<6} {:<22} {:>7.1}x {:>7.1}x {}",
            "MER",
            m.name(),
            t_n / t_s,
            t_a / t_s,
            wf_col
        );
    }

    println!("\npaper (for shape comparison):");
    println!("  MET  correlation 59x / 13.4x / 32x; covariance 160x / 21x; dot 41x / 35x; median 5x / 1.1x");
    println!("  MER  correlation 27x / 6.4x / 14x; covariance 155x / 22x");
    println!("'x' marks methods the paper also excludes (W_F computes only the correlation coefficient).");
}
