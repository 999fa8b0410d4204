//! Self-tests of the harness on a miniature workload: determinism of
//! everything generated and answered, exact repetition of every count,
//! and `BENCHMARK.json` in step with the tables in `spec.rs`.

use crate::gen;
use crate::run::{run, Outcome};
use crate::spec::{Better, Spec, Topology, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

fn out_dir(test: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{test}"));
    std::fs::create_dir_all(&dir).expect("test out dir");
    dir
}

fn tiny_run(topology: Topology, seed: u64, trace: bool, test: &str) -> Outcome {
    let out = run(&Spec::tiny(topology), seed, trace, &out_dir(test)).expect("tiny run");
    assert!(out.correct && out.failed == 0, "{:#?}", out.notes);
    out
}

#[test]
fn same_seed_same_inputs_and_bodies_other_seed_other() {
    let spec = Spec::tiny(Topology::Mono);
    let (a, b, c) = (
        gen::setup(&spec, 7),
        gen::setup(&spec, 7),
        gen::setup(&spec, 8),
    );
    assert_eq!(a.base, b.base);
    assert_eq!(a.replay, b.replay);
    for (pa, pb) in a.pools.iter().zip(&b.pools) {
        assert_eq!(pa.stmts, pb.stmts, "statements and thresholds repeat");
        assert_eq!(pa.expected, pb.expected);
        assert_eq!((&pa.latency, &pa.load), (&pb.latency, &pb.load));
    }
    assert_eq!(a.digest(), b.digest());
    for (da, dc) in a.digest().iter().zip(c.digest()) {
        assert_ne!(
            *da, dc,
            "another seed changes data, ticks, statements and schedules"
        );
    }

    let first = tiny_run(Topology::Mono, 7, false, "mono-a");
    let again = tiny_run(Topology::Mono, 7, false, "mono-b");
    let other = tiny_run(Topology::Mono, 8, false, "mono-c");
    assert_eq!(
        first.digests, again.digests,
        "same seed, same response bodies"
    );
    assert_ne!(
        first.digests[4], other.digests[4],
        "another seed, other bodies"
    );
    let bytes = |o: &Outcome| {
        o.metrics
            .iter()
            .find(|m| m.name == "model_bytes_per_pair")
            .map(|m| m.value)
    };
    assert_eq!(bytes(&first), bytes(&again));
}

#[test]
fn fleet_answers_are_the_monoliths_bytes() {
    let mono = tiny_run(Topology::Mono, 7, false, "shared-mono");
    let dist = tiny_run(Topology::Dist { k: 2 }, 7, false, "shared-dist");
    assert_eq!(
        mono.digests, dist.digests,
        "shared data and statements, identical bodies"
    );
}

#[test]
fn traced_counts_repeat_exactly_and_cover_every_layer_metric() {
    let a = tiny_run(Topology::Dist { k: 2 }, 7, true, "trace-a");
    let b = tiny_run(Topology::Dist { k: 2 }, 7, true, "trace-b");
    assert_eq!(a.metrics.len(), PER_LAYER.len());
    let is_count = |name: &str| {
        [
            "_pairs",
            "_nodes",
            "_computed",
            "_cache_hits",
            "_iters",
            "routed_per_stmt",
            "snapshot_bytes",
        ]
        .iter()
        .any(|suffix| name.ends_with(suffix))
    };
    let mut counts = 0;
    for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
        assert!(ma.value.is_finite(), "{} is not a number", ma.name);
        if is_count(ma.name) {
            counts += 1;
            assert_eq!(ma.value, mb.value, "{} must repeat exactly", ma.name);
            assert!(
                ma.value > 0.0 || ma.name == "stream.delta_refit_pairs",
                "{} is zero",
                ma.name
            );
        }
    }
    assert!(counts >= 8, "only {counts} count metrics found");
    let get = |n: &str| {
        a.metrics
            .iter()
            .find(|m| m.name == n)
            .map(|m| m.value)
            .expect(n)
    };
    assert!(get("build.unattributed_frac") < 0.5);
    assert!(get("coord.remote_point_us") > get("coord.inproc_point_us"));
    let trace =
        std::fs::read_to_string(out_dir("trace-a").join("trace-tiny.json")).expect("span file");
    for span in [
        "core.afclst",
        "core.symex_explore",
        "scape.build",
        "storage.snapshot_commit",
        "serve.point",
        "stream.refresh",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "no {span} span"
        );
    }
}

/// `BENCHMARK.json` as the tables in `spec.rs` spell it.
fn benchmark_json() -> String {
    let better = |b: Better| {
        if b == Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            format!("    {{\"name\": \"{}\", \"why\": \"{why}\"}}", w.name)
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::spec::BASE_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Set `AFFINITY_BENCH_BLESS=1` to rewrite the file from the tables.
#[test]
fn benchmark_json_matches_the_tables() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let expected = benchmark_json();
    if std::env::var_os("AFFINITY_BENCH_BLESS").is_some() {
        std::fs::write(&path, &expected).expect("write BENCHMARK.json");
    }
    let found = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(found, expected, "BENCHMARK.json and spec.rs disagree");
    assert!(WORKLOADS
        .iter()
        .all(|w| w.why.split_whitespace().collect::<Vec<_>>().join(" ").len() <= 200));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound <= 0.25 && m.name.len() <= 64));
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
}
