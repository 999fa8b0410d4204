//! Shared support for the AFFINITY benchmark harness.
//!
//! Every bench target regenerates one table or figure of the paper's
//! evaluation (Sec. 6) and prints the same rows/series the paper reports.
//! Absolute numbers reflect this machine, not the authors' 2013 testbed;
//! EXPERIMENTS.md records the shape comparison.
//!
//! Scale is controlled by the `AFFINITY_SCALE` environment variable:
//!
//! * `quick` (default) — minutes-long total run; reduced `n`/`m`;
//! * `mid` — closer to paper scale for the cheap experiments;
//! * `full` — the paper's exact dataset shapes (Table 3). Expect long
//!   runtimes for the naive baselines, exactly as the paper's absolute
//!   plots suggest.

#![deny(missing_docs)]
#![warn(clippy::all)]

use affinity_core::afclst::AfclstParams;
use affinity_core::symex::{Symex, SymexParams, SymexVariant};
use affinity_data::generator::{sensor_dataset, stock_dataset, SensorConfig, StockConfig};
use affinity_data::DataMatrix;
use std::time::Instant;

/// Benchmark scale, from `AFFINITY_SCALE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced sizes; the default.
    Quick,
    /// Intermediate sizes.
    Mid,
    /// Paper-exact dataset shapes (Table 3).
    Full,
}

impl Scale {
    /// Read the scale from the environment.
    pub fn from_env() -> Scale {
        match std::env::var("AFFINITY_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            Ok("mid") => Scale::Mid,
            _ => Scale::Quick,
        }
    }

    /// Human-readable tag.
    pub fn tag(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Mid => "mid",
            Scale::Full => "full (paper Table 3 shapes)",
        }
    }
}

/// The sensor-data stand-in at the given scale.
pub fn sensor(scale: Scale) -> DataMatrix {
    let cfg = match scale {
        Scale::Quick => SensorConfig {
            series: 120,
            samples: 240,
            ..SensorConfig::default()
        },
        Scale::Mid => SensorConfig {
            series: 300,
            samples: 480,
            ..SensorConfig::default()
        },
        Scale::Full => SensorConfig::default(),
    };
    sensor_dataset(&cfg)
}

/// The stock-data stand-in at the given scale.
pub fn stock(scale: Scale) -> DataMatrix {
    let cfg = match scale {
        Scale::Quick => StockConfig {
            series: 160,
            samples: 390,
            ..StockConfig::default()
        },
        Scale::Mid => StockConfig {
            series: 400,
            samples: 780,
            ..StockConfig::default()
        },
        Scale::Full => StockConfig::default(),
    };
    stock_dataset(&cfg)
}

/// The paper's cluster sweep `k ∈ {6, 10, 14, 18, 22}` (Figs. 9–11).
pub const CLUSTER_SWEEP: [usize; 5] = [6, 10, 14, 18, 22];

/// Worker-lane count for the parallel phases, from `AFFINITY_THREADS`
/// (`0`/unset = `available_parallelism`) — the bench-side face of the
/// `threads` knob.
pub fn threads_from_env() -> usize {
    std::env::var("AFFINITY_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// SYMEX parameters with the paper's evaluation defaults
/// (`γ_max = 10`, `δ_min = 10`), the given `k`, and the thread count
/// from [`threads_from_env`].
pub fn symex_params(k: usize, variant: SymexVariant) -> SymexParams {
    symex_params_threads(k, variant, threads_from_env())
}

/// [`symex_params`] with an explicit thread count (fig. 13's scaling
/// sweep drives this directly).
pub fn symex_params_threads(k: usize, variant: SymexVariant, threads: usize) -> SymexParams {
    SymexParams {
        afclst: AfclstParams {
            k,
            gamma_max: 10,
            delta_min: 10,
            seed: 0x00AF_F157,
        },
        variant,
        threads,
    }
}

/// A ready-made SYMEX+ runner with `k = 6` (the paper's operating point).
pub fn default_symex() -> Symex {
    Symex::new(symex_params(6, SymexVariant::Plus))
}

/// Time a closure, returning `(result, seconds)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Print a standard bench header.
pub fn header(id: &str, title: &str, scale: Scale) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("scale: {}", scale.tag());
    println!("================================================================");
}

/// Format seconds compactly.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Pick thresholds hitting target result-set sizes: given all measure
/// values, return the value at each requested fraction of the sorted
/// order (descending result size for greater-than queries).
pub fn quantile_thresholds(values: &[f64], fractions: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    fractions
        .iter()
        .map(|f| {
            let idx = ((sorted.len() as f64 - 1.0) * (1.0 - f)).round() as usize;
            sorted[idx.min(sorted.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_defaults_to_quick() {
        // Not setting the variable in-process; just exercise the default.
        assert_eq!(Scale::Quick.tag(), "quick");
        assert_eq!(Scale::Full.tag(), "full (paper Table 3 shapes)");
    }

    #[test]
    fn datasets_have_expected_quick_shapes() {
        let s = sensor(Scale::Quick);
        assert_eq!((s.series_count(), s.samples()), (120, 240));
        let k = stock(Scale::Quick);
        assert_eq!((k.series_count(), k.samples()), (160, 390));
    }

    #[test]
    fn quantile_thresholds_move_monotonically() {
        let vals: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let taus = quantile_thresholds(&vals, &[0.1, 0.5, 0.9]);
        // Larger target fraction => smaller threshold for >-queries.
        assert!(taus[0] > taus[1] && taus[1] > taus[2]);
        let above = vals.iter().filter(|v| **v > taus[1]).count();
        assert!((40..=60).contains(&above), "{above}");
    }

    #[test]
    fn fmt_secs_ranges() {
        assert!(fmt_secs(2.5).ends_with('s'));
        assert!(fmt_secs(0.002).ends_with("ms"));
        assert!(fmt_secs(2e-5).ends_with("us"));
    }
}

/// Shared driver for the accuracy/efficiency tradeoff experiments
/// (Figs. 9, 10, 11): sweep `k`, compute every measure with `W_N` and
/// `W_A`, report times, speedups and %RMSE.
pub mod tradeoff {
    use super::*;
    use affinity_core::measures::{self, LocationMeasure, PairwiseMeasure};
    use affinity_core::mec::MecEngine;
    use affinity_core::rmse::percent_rmse;
    use affinity_core::symex::SymexVariant;

    /// One measured row of the sweep.
    #[derive(Debug, Clone)]
    pub struct Row {
        /// Cluster count `k`.
        pub k: usize,
        /// Measure name.
        pub measure: &'static str,
        /// `W_N` seconds.
        pub naive_secs: f64,
        /// `W_A` seconds (pre-processing share + reconstruction).
        pub affine_secs: f64,
        /// `naive_secs / affine_secs`.
        pub speedup: f64,
        /// %RMSE of Eq. 16.
        pub rmse: f64,
    }

    /// Run the sweep over the paper's `k` values (clamped to `n−1`).
    pub fn run(data: &DataMatrix) -> Vec<Row> {
        let mut rows = Vec::new();
        for &k in CLUSTER_SWEEP.iter() {
            let k = k.min(data.series_count().saturating_sub(1)).max(1);
            let symex = Symex::new(symex_params(k, SymexVariant::Plus));
            let affine = symex.run(data).expect("symex run");
            // W_A cost: engine construction (pivot statistics +
            // normalizers) is the paper's one-time pre-processing for
            // *pairwise* measures; L-measures only need the per-series
            // relationships already inside the AffineSet plus k centre
            // evaluations (timed inside location_all). Charge the engine
            // cost to the two pairwise panels.
            let (engine, prep_secs) = time(|| MecEngine::new(data, &affine));
            let prep_share = prep_secs / 2.0;

            for measure in [
                LocationMeasure::Mean,
                LocationMeasure::Median,
                LocationMeasure::Mode,
            ] {
                let (exact, naive_secs) = time(|| measures::location_all(measure, data));
                let (approx, wa_secs) = time(|| engine.location_all(measure));
                let affine_secs = wa_secs;
                rows.push(Row {
                    k,
                    measure: measure.name(),
                    naive_secs,
                    affine_secs,
                    speedup: naive_secs / affine_secs,
                    rmse: percent_rmse(&exact, &approx),
                });
            }
            for measure in [PairwiseMeasure::Covariance, PairwiseMeasure::DotProduct] {
                let (exact, naive_secs) = time(|| measures::pairwise_all(measure, data));
                let (approx, wa_secs) =
                    time(|| engine.pairwise_all(measure).expect("full affine set"));
                let affine_secs = wa_secs + prep_share;
                rows.push(Row {
                    k,
                    measure: measure.name(),
                    naive_secs,
                    affine_secs,
                    speedup: naive_secs / affine_secs,
                    rmse: percent_rmse(&exact, &approx),
                });
            }
        }
        rows
    }

    /// Print the sweep in the paper's per-measure panel layout.
    pub fn print(rows: &[Row], absolute: bool) {
        for measure in ["mean", "median", "mode", "covariance", "dot product"] {
            println!("\n--- {measure} ---");
            if measure == "mode" {
                println!(
                    "(W_N runs measures::mode per series, W_A per cluster centre: one exact \
                     bound-and-verify KDE argmax, so expect ~n/k, not the paper's ~3500x)"
                );
            }
            if absolute {
                println!("{:>4} {:>12} {:>12}", "k", "W_N", "W_A");
            } else {
                println!("{:>4} {:>10} {:>12}", "k", "speedup", "%RMSE");
            }
            for r in rows.iter().filter(|r| r.measure == measure) {
                if absolute {
                    println!(
                        "{:>4} {:>12} {:>12}",
                        r.k,
                        fmt_secs(r.naive_secs),
                        fmt_secs(r.affine_secs)
                    );
                } else {
                    println!("{:>4} {:>10.1}x {:>12.3e}", r.k, r.speedup, r.rmse);
                }
            }
        }
    }
}
