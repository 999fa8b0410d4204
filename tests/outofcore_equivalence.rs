//! Out-of-core equivalence suite: every model artifact built by
//! *streaming* columns through a `SeriesSource` (an on-disk
//! `MatrixStore`, and a cache-constrained `CachedStore` forced to evict
//! constantly) must be **bit-for-bit identical** to the resident build
//! — clusters, affine relationships, MEC answers, SCAPE query results,
//! QL session outputs, and the streaming engine's warm-started model.
//!
//! The cache budget is deliberately tiny (default 3 columns, override
//! with `AFFINITY_CACHE_COLS`) so the LRU thrashes: equivalence must
//! hold under maximal eviction churn, not just when everything fits.

use affinity::core::afclst::{afclst, AfclstParams};
use affinity::core::symex::AffineSet;
use affinity::prelude::*;

fn cache_cols() -> usize {
    std::env::var("AFFINITY_CACHE_COLS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

fn store_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("affinity-ooc-equivalence");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.afn", std::process::id()))
}

fn workloads() -> Vec<(&'static str, DataMatrix)> {
    vec![
        ("sensor", sensor_dataset(&SensorConfig::reduced(22, 72))),
        ("stock", stock_dataset(&StockConfig::reduced(26, 90))),
    ]
}

fn bits(x: f64) -> u64 {
    x.to_bits()
}

fn assert_slice_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(bits(*x), bits(*y), "{what}[{i}]: {x} vs {y}");
    }
}

fn assert_affine_bits_eq(a: &AffineSet, b: &AffineSet, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: relationship count");
    assert_eq!(a.pivots(), b.pivots(), "{what}: pivots");
    assert_eq!(
        a.clusters().assignments(),
        b.clusters().assignments(),
        "{what}: assignments"
    );
    for l in 0..a.clusters().k() {
        assert_slice_bits_eq(
            a.clusters().center(l),
            b.clusters().center(l),
            &format!("{what}: center {l}"),
        );
    }
    for (ra, rb) in a.relationships().iter().zip(b.relationships()) {
        assert_eq!(ra.pair, rb.pair, "{what}");
        assert_eq!(ra.pivot, rb.pivot, "{what}");
        assert_eq!(ra.common, rb.common, "{what}");
        for r in 0..2 {
            for c in 0..2 {
                assert_eq!(
                    bits(ra.a[r][c]),
                    bits(rb.a[r][c]),
                    "{what}: A of {:?}",
                    ra.pair
                );
            }
            assert_eq!(bits(ra.b[r]), bits(rb.b[r]), "{what}: b of {:?}", ra.pair);
        }
    }
    for (sa, sb) in a
        .series_relationships()
        .iter()
        .zip(b.series_relationships())
    {
        assert_eq!(sa.series, sb.series, "{what}");
        assert_eq!(sa.cluster, sb.cluster, "{what}");
        assert_eq!(bits(sa.c), bits(sb.c), "{what}: c of series {}", sa.series);
        assert_eq!(bits(sa.d), bits(sb.d), "{what}: d of series {}", sa.series);
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

#[test]
fn afclst_is_bit_identical_across_sources() {
    for (name, data) in workloads() {
        let path = store_path(&format!("afclst-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let params = AfclstParams::default();
        let resident = afclst(&data, &params).unwrap();

        let store = MatrixStore::open(&path).unwrap();
        let streamed = afclst(&store, &params).unwrap();
        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), cache_cols());
        let constrained = afclst(&cached, &params).unwrap();
        std::fs::remove_file(&path).ok();

        for (tag, model) in [("store", &streamed), ("cached", &constrained)] {
            assert_eq!(
                resident.assignments(),
                model.assignments(),
                "{name}/{tag}: assignments"
            );
            assert_eq!(resident.iterations(), model.iterations(), "{name}/{tag}");
            assert_eq!(resident.converged(), model.converged(), "{name}/{tag}");
            for l in 0..resident.k() {
                assert_slice_bits_eq(
                    resident.center(l),
                    model.center(l),
                    &format!("{name}/{tag}: center {l}"),
                );
            }
        }
        let stats = cached.stats();
        assert!(
            stats.evictions > 0,
            "{name}: a {}-column cache over {} series must evict ({stats:?})",
            cache_cols(),
            data.series_count()
        );
    }
}

#[test]
fn symex_build_is_bit_identical_across_sources() {
    for (name, data) in workloads() {
        let path = store_path(&format!("symex-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let symex = Symex::new(SymexParams::default());
        let resident = symex.run(&data).unwrap();

        let store = MatrixStore::open(&path).unwrap();
        let streamed = symex.run(&store).unwrap();
        assert_affine_bits_eq(&resident, &streamed, &format!("{name}/store"));

        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), cache_cols());
        let constrained = symex.run(&cached).unwrap();
        assert_affine_bits_eq(&resident, &constrained, &format!("{name}/cached"));
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn mec_engine_answers_are_bit_identical_across_sources() {
    for (name, data) in workloads() {
        let path = store_path(&format!("mec-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let resident = MecEngine::new(&data, &affine);
        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), cache_cols());
        let streamed = MecEngine::from_source(&cached, &affine).unwrap();
        std::fs::remove_file(&path).ok();

        for measure in PairwiseMeasure::EXTENDED {
            let a = resident.pairwise_all(measure).unwrap();
            let b = streamed.pairwise_all(measure).unwrap();
            assert_slice_bits_eq(&a, &b, &format!("{name}: {}", measure.name()));
        }
        for measure in LocationMeasure::ALL {
            let a = resident.location_all(measure);
            let b = streamed.location_all(measure);
            assert_slice_bits_eq(&a, &b, &format!("{name}: {}", measure.name()));
        }
        // Ad-hoc subset queries too (scalar and batched paths).
        let ids: Vec<SeriesId> = (0..data.series_count()).step_by(2).collect();
        let a = resident
            .pairwise(PairwiseMeasure::Correlation, &ids)
            .unwrap();
        let b = streamed
            .pairwise(PairwiseMeasure::Correlation, &ids)
            .unwrap();
        assert_slice_bits_eq(a.as_slice(), b.as_slice(), &format!("{name}: subset"));
    }
}

#[test]
fn scape_index_answers_are_identical_across_sources() {
    for (name, data) in workloads() {
        let path = store_path(&format!("scape-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let resident = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), cache_cols());
        let streamed =
            ScapeIndex::build_from_source(&cached, &affine, &Measure::ALL, &ThreadPool::new(2))
                .unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(resident.stats(), streamed.stats(), "{name}");
        for measure in PairwiseMeasure::ALL {
            for &tau in &taus(measure) {
                let a = resident
                    .threshold_pairs(measure, ThresholdOp::Greater, tau)
                    .unwrap();
                let b = streamed
                    .threshold_pairs(measure, ThresholdOp::Greater, tau)
                    .unwrap();
                assert_eq!(a, b, "{name}: {} > {tau}", measure.name());
                assert_eq!(
                    resident.count_threshold_pairs(measure, ThresholdOp::Greater, tau),
                    streamed.count_threshold_pairs(measure, ThresholdOp::Greater, tau),
                    "{name}: count {} > {tau}",
                    measure.name()
                );
            }
            let a = resident.range_pairs(measure, -0.25, 0.75).unwrap();
            let b = streamed.range_pairs(measure, -0.25, 0.75).unwrap();
            assert_eq!(a, b, "{name}: {} range", measure.name());
        }
        for measure in LocationMeasure::ALL {
            let filter = Filter::Threshold {
                op: ThresholdOp::Greater,
                tau: 0.0,
            };
            let a = resident.search_series(measure, filter).unwrap();
            let b = streamed.search_series(measure, filter).unwrap();
            assert_eq!(a, b, "{name}: {}", measure.name());
        }
    }
}

#[test]
fn ql_session_outputs_are_identical_across_sources() {
    for (name, data) in workloads() {
        let path = store_path(&format!("ql-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let resident = Session::new(&data, &affine, &Measure::EXTENDED).unwrap();
        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), cache_cols());
        let labels = cached.store().labels().to_vec();
        let streamed = Session::from_source(&cached, labels, &affine, &Measure::EXTENDED).unwrap();
        std::fs::remove_file(&path).ok();

        let l0 = data.label(0).to_string();
        let l1 = data.label(1).to_string();
        for stmt in [
            "MET correlation > 0.9".to_string(),
            "MER covariance BETWEEN -0.5 AND 0.5".to_string(),
            "MET mean > 0".to_string(),
            format!("MEC correlation OF {l0}, {l1}"),
            format!("MEC mean OF {l0}"),
            "EXPLAIN MET dot > 10".to_string(),
        ] {
            let a = resident.execute(&stmt).unwrap();
            let b = streamed.execute(&stmt).unwrap();
            assert_eq!(a, b, "{name}: `{stmt}`");
        }
    }
}

#[test]
fn streaming_engine_warm_start_matches_resident_build() {
    for (name, data) in workloads() {
        let path = store_path(&format!("stream-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let window = data.samples() / 2;
        let cfg = StreamingConfig::new(window);

        // Warm-start out of core: trailing `window` samples, one column
        // at a time through a constrained cache.
        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), cache_cols());
        let engine = StreamingEngine::from_source(cfg.clone(), &cached).unwrap();
        std::fs::remove_file(&path).ok();
        let model = engine.model().expect("warm start builds a model");

        // Resident reference: the same trailing window, built directly.
        let trailing = DataMatrix::from_series(
            (0..data.series_count())
                .map(|v| data.series(v)[data.samples() - window..].to_vec())
                .collect(),
        );
        let mut params = cfg.symex.clone();
        params.afclst.k = params
            .afclst
            .k
            .min(trailing.series_count().saturating_sub(1))
            .max(1);
        let expected = Symex::new(params).run(&trailing).unwrap();
        assert_affine_bits_eq(model.affine(), &expected, name);

        // Rolling statistics must be exact for the warm window.
        for v in 0..data.series_count() {
            let s = engine.window().series(v);
            let exact = affinity::linalg::vector::variance(s);
            assert!(
                (engine.rolling().variance(v) - exact).abs() < 1e-9,
                "{name}: rolling variance of series {v}"
            );
        }
    }
}

/// Every model artifact, built through a `CachedStore` of 2,
/// `cache_cols()` and 16 columns — readahead spans of at most 1, 1 and
/// 8 columns per miss: readahead must be invisible in the output — the
/// same checksummed bytes arrive whichever miss fetched them — while
/// the consumers' announced access patterns race the LRU's evictions.
#[test]
fn prefetched_builds_are_bit_identical_at_every_depth() {
    for (name, data) in workloads() {
        let path = store_path(&format!("prefetch-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let symex = Symex::new(SymexParams::default());
        let resident_affine = symex.run(&data).unwrap();
        let resident_engine = MecEngine::new(&data, &resident_affine);
        let resident_index = ScapeIndex::build(&data, &resident_affine, &Measure::ALL).unwrap();
        let resident_session = Session::new(&data, &resident_affine, &Measure::EXTENDED).unwrap();

        for capacity in [2, cache_cols(), 16] {
            let tag = format!("{name}/capacity-{capacity}");
            let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), capacity);

            // SYMEX (incl. AFCLST inside).
            let affine = symex.run(&cached).unwrap();
            assert_affine_bits_eq(&resident_affine, &affine, &tag);

            // MEC engine answers, every measure.
            let engine = MecEngine::from_source(&cached, &affine).unwrap();
            for measure in PairwiseMeasure::EXTENDED {
                let a = resident_engine.pairwise_all(measure).unwrap();
                let b = engine.pairwise_all(measure).unwrap();
                assert_slice_bits_eq(&a, &b, &format!("{tag}: {}", measure.name()));
            }
            for measure in LocationMeasure::ALL {
                let a = resident_engine.location_all(measure);
                let b = engine.location_all(measure);
                assert_slice_bits_eq(&a, &b, &format!("{tag}: {}", measure.name()));
            }

            // SCAPE index.
            let index =
                ScapeIndex::build_from_source(&cached, &affine, &Measure::ALL, &ThreadPool::new(2))
                    .unwrap();
            assert_eq!(resident_index.stats(), index.stats(), "{tag}");
            for measure in PairwiseMeasure::ALL {
                for &tau in &taus(measure) {
                    assert_eq!(
                        resident_index
                            .threshold_pairs(measure, ThresholdOp::Greater, tau)
                            .unwrap(),
                        index
                            .threshold_pairs(measure, ThresholdOp::Greater, tau)
                            .unwrap(),
                        "{tag}: {} > {tau}",
                        measure.name()
                    );
                }
            }

            // QL session outputs.
            let labels = cached.store().labels().to_vec();
            let session =
                Session::from_source(&cached, labels, &affine, &Measure::EXTENDED).unwrap();
            for stmt in [
                "MET correlation > 0.9",
                "MER covariance BETWEEN -0.5 AND 0.5",
                "MEC mean OF 0, 1",
            ] {
                assert_eq!(
                    resident_session.execute(stmt).unwrap(),
                    session.execute(stmt).unwrap(),
                    "{tag}: `{stmt}`"
                );
            }

            // Streaming warm start off the cache.
            let window = data.samples() / 2;
            let engine =
                StreamingEngine::from_source(StreamingConfig::new(window), &cached).unwrap();
            let model = engine.model().expect("warm start builds a model");
            let trailing = DataMatrix::from_series(
                (0..data.series_count())
                    .map(|v| data.series(v)[data.samples() - window..].to_vec())
                    .collect(),
            );
            let mut params = StreamingConfig::new(window).symex.clone();
            params.afclst.k = params
                .afclst
                .k
                .min(trailing.series_count().saturating_sub(1))
                .max(1);
            let expected = Symex::new(params).run(&trailing).unwrap();
            assert_affine_bits_eq(model.affine(), &expected, &tag);

            let stats = cached.stats();
            if capacity / 2 > 1 {
                assert!(
                    stats.prefetch.issued > 0,
                    "{tag}: the announced passes must have driven readahead ({stats:?})"
                );
            }
            assert_eq!(
                stats.prefetch.issued,
                stats.prefetch.hits + stats.prefetch.wasted + cached.prefetched_unconsumed() as u64,
                "{tag}: readahead ledger ({stats:?})"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn streamed_build_from_store_without_cache_matches_cli_path() {
    // The `affinity query --ooc` path: Symex + Session straight from a
    // CachedStore with a byte budget.
    let data = stock_dataset(&StockConfig::reduced(16, 64));
    let path = store_path("cli");
    MatrixStore::create(&path, &data).unwrap();
    let store = MatrixStore::open(&path).unwrap();
    let labels = store.labels().to_vec();
    let source = CachedStore::with_budget_bytes(store, 4 * 64 * 8);
    assert_eq!(source.capacity(), 4);
    let affine = Symex::new(SymexParams::default()).run(&source).unwrap();
    let session = Session::from_source(&source, labels, &affine, &Measure::EXTENDED).unwrap();
    let resident_affine = Symex::new(SymexParams::default()).run(&data).unwrap();
    let resident = Session::new(&data, &resident_affine, &Measure::EXTENDED).unwrap();
    for stmt in ["MET correlation > 0.8", "MEC variance OF 0, 1, 2"] {
        // Parse errors must agree too (variance is not a QL measure).
        let a = resident.execute(stmt);
        let b = session.execute(stmt);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x, y, "`{stmt}`"),
            (Err(_), Err(_)) => {}
            (x, y) => panic!("`{stmt}` diverged: {x:?} vs {y:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_build_is_bit_identical_across_sources() {
    // A sharded model built by streaming columns through a
    // cache-starved `CachedStore` must match both the resident sharded
    // build (per shard, byte-for-byte) and the resident *global* model
    // (every answer, bit-for-bit) — sharding composes with the
    // out-of-core path without widening the equivalence contract.
    for (name, data) in workloads() {
        let path = store_path(&format!("shard-{name}"));
        MatrixStore::create(&path, &data).unwrap();
        let resident_affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let resident =
            ShardedModel::build(&data, &SymexParams::default(), 3, &Measure::ALL).unwrap();

        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), cache_cols());
        let constrained =
            ShardedModel::build(&cached, &SymexParams::default(), 3, &Measure::ALL).unwrap();
        let stats = cached.stats();
        assert!(
            stats.evictions > 0,
            "{name}: a {}-column cache over {} series must evict ({stats:?})",
            cache_cols(),
            data.series_count()
        );
        std::fs::remove_file(&path).ok();

        assert_eq!(
            resident.plan().assignments(),
            constrained.plan().assignments(),
            "{name}: shard plans diverge across sources"
        );
        for (i, (a, b)) in resident
            .shards()
            .iter()
            .zip(constrained.shards())
            .enumerate()
        {
            assert_eq!(
                a.affine().to_bytes(),
                b.affine().to_bytes(),
                "{name}: shard {i} affine bytes"
            );
            assert_eq!(
                a.index().to_bytes(),
                b.index().to_bytes(),
                "{name}: shard {i} index bytes"
            );
        }

        // Answer-level equivalence against the resident global build.
        let engine = MecEngine::new(&data, &resident_affine);
        for measure in PairwiseMeasure::ALL {
            assert_slice_bits_eq(
                &engine.pairwise_all(measure).unwrap(),
                &constrained.pairwise_all(measure).unwrap(),
                &format!("{name}: ooc-sharded {}", measure.name()),
            );
        }
        let index = ScapeIndex::build(&data, &resident_affine, &Measure::ALL).unwrap();
        let never = || false;
        for &tau in &[0.0, 0.5, 0.9] {
            assert_eq!(
                index
                    .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
                    .unwrap(),
                constrained
                    .search_pairs(
                        PairwiseMeasure::Correlation,
                        Filter::Threshold {
                            op: ThresholdOp::Greater,
                            tau
                        },
                        &never
                    )
                    .unwrap(),
                "{name}: ooc-sharded MET @ {tau}"
            );
        }
    }
}
