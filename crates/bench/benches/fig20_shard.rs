//! Fig. 20 (repo extension) — sharded model scale-out.
//!
//! One global affine set walls AFFINITY at the `O(n²)` pair sweep;
//! `affinity_shard` partitions the series along AFCLST cluster cuts and
//! builds each shard's affine set + SCAPE trees on the shared worker
//! pool. This bench reports what that buys and what it costs:
//!
//! 1. **build scaling** — wall-clock of `ShardedModel::build` at
//!    K ∈ {1, 2, 4} against the monolithic Symex + ScapeIndex build.
//!    The global SYMEX fit is shared work; the per-shard index builds
//!    are the parallel section, so multi-shard speedup needs real
//!    cores — on a 1-core runner the honest expectation is parity (a
//!    few percent of partition overhead), and the JSON records the
//!    hardware thread count so readers can judge the numbers;
//! 2. **query parity** — MET (indexed threshold) and MEC (full pair
//!    sweep) latency per K, with every answer checked equal to the
//!    monolithic build's: sharding is a scale-out knob, not an
//!    approximation, so any speed difference must come for free.
//!
//! Set `AFFINITY_BENCH_JSON=<path>` to write the measurements as a JSON
//! baseline (CI uploads `BENCH_shard.json`).

use affinity_bench::{fmt_secs, header, sensor, time, Scale};
use affinity_core::measures::{Measure, PairwiseMeasure};
use affinity_core::symex::{Symex, SymexParams};
use affinity_scape::{Filter, ScapeIndex, ThresholdOp};
use affinity_shard::ShardedModel;
use std::fmt::Write as _;

const SHARD_COUNTS: &[usize] = &[1, 2, 4];
const TAU: f64 = 0.5;

struct Row {
    shards: usize,
    build_secs: f64,
    met_secs: f64,
    mec_secs: f64,
    met_hits: usize,
}

fn main() {
    let scale = Scale::from_env();
    header(
        "fig20_shard",
        "sharded scale-out vs monolithic build",
        scale,
    );
    let data = sensor(scale);
    let n = data.series_count();
    let m = data.samples();
    println!("dataset: {n} series x {m} samples\n");

    let params = SymexParams::default();

    // Monolithic baseline: one global affine set + one index.
    let (affine, global_fit_secs) = time(|| Symex::new(params.clone()).run(&data).unwrap());
    let (index, global_index_secs) =
        time(|| ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap());
    let global_build_secs = global_fit_secs + global_index_secs;
    let (expected_met, global_met_secs) = time(|| {
        index
            .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, TAU)
            .unwrap()
    });
    let engine_input = affinity_core::mec::MecEngine::new(&data, &affine);
    let (expected_mec, global_mec_secs) = time(|| {
        engine_input
            .pairwise_all(PairwiseMeasure::Correlation)
            .unwrap()
    });
    println!(
        "global    build {:>9}  MET {:>9} ({} hits)  MEC sweep {:>9}",
        fmt_secs(global_build_secs),
        fmt_secs(global_met_secs),
        expected_met.len(),
        fmt_secs(global_mec_secs),
    );

    let never = || false;
    let mut rows = Vec::new();
    for &k in SHARD_COUNTS {
        let (model, build_secs) =
            time(|| ShardedModel::build(&data, &params, k, &Measure::ALL).unwrap());
        assert_eq!(model.shards().len(), k);
        let (met, met_secs) = time(|| {
            model
                .search_pairs(
                    PairwiseMeasure::Correlation,
                    Filter::Threshold {
                        op: ThresholdOp::Greater,
                        tau: TAU,
                    },
                    &never,
                )
                .unwrap()
        });
        let (mec, mec_secs) = time(|| model.pairwise_all(PairwiseMeasure::Correlation).unwrap());
        // Scale-out must be free of drift: identical hits, identical bits.
        assert_eq!(met, expected_met, "K={k}: MET answers diverged");
        assert_eq!(mec.len(), expected_mec.len());
        for (a, b) in mec.iter().zip(&expected_mec) {
            assert_eq!(a.to_bits(), b.to_bits(), "K={k}: MEC bits diverged");
        }
        println!(
            "K={k:<2}      build {:>9}  MET {:>9} ({} hits)  MEC sweep {:>9}",
            fmt_secs(build_secs),
            fmt_secs(met_secs),
            met.len(),
            fmt_secs(mec_secs),
        );
        rows.push(Row {
            shards: k,
            build_secs,
            met_secs,
            mec_secs,
            met_hits: met.len(),
        });
    }
    println!("\nall sharded answers verified bit-identical to the global build");

    if let Ok(out) = std::env::var("AFFINITY_BENCH_JSON") {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"bench\": \"fig20_shard\",");
        let _ = writeln!(
            s,
            "  \"scale\": \"{}\",",
            scale.tag().split(' ').next().expect("tag")
        );
        let _ = writeln!(
            s,
            "  \"hardware_threads\": {},",
            affinity_par::resolve_threads(0)
        );
        let _ = writeln!(s, "  \"series\": {n},");
        let _ = writeln!(s, "  \"samples\": {m},");
        let _ = writeln!(s, "  \"global_build_secs\": {global_build_secs:.6},");
        let _ = writeln!(s, "  \"global_met_secs\": {global_met_secs:.6},");
        let _ = writeln!(s, "  \"global_mec_secs\": {global_mec_secs:.6},");
        let _ = writeln!(s, "  \"shard_counts\": [");
        for (i, r) in rows.iter().enumerate() {
            let comma = if i + 1 == rows.len() { "" } else { "," };
            let _ = writeln!(
                s,
                "    {{ \"shards\": {}, \"build_secs\": {:.6}, \"met_secs\": {:.6}, \"mec_secs\": {:.6}, \"met_hits\": {} }}{comma}",
                r.shards, r.build_secs, r.met_secs, r.mec_secs, r.met_hits
            );
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"answers_bit_identical\": true");
        let _ = writeln!(s, "}}");
        std::fs::write(&out, s).expect("write bench json");
        println!("wrote {out}");
    }
}
