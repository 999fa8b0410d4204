//! Per-layer measurements of the traced run that no span of the main
//! script can give: direct calls into one layer at a time, over the
//! workload's own model and statements, after the script has finished.

use crate::gen::{Class, Setup};
use crate::spec::Spec;
use crate::stats::{median, percentile, sorted};
use crate::sut::{self, Engine, Executor, Layers, Stmt};
use crate::trace::Tracer;
use std::path::Path;
use std::time::Instant;

type Res<T> = Result<T, String>;
pub type Numbers = Vec<(&'static str, f64)>;

/// Median microseconds of `call` over `items`, each timed on its own,
/// after one untimed pass (caches fill, lazy set-up finishes).
pub fn p50_us<T>(items: &[T], passes: usize, mut call: impl FnMut(&T) -> Res<()>) -> Res<f64> {
    for item in items {
        call(item)?;
    }
    let mut us = Vec::with_capacity(items.len() * passes);
    for _ in 0..passes {
        for item in items {
            let t = Instant::now();
            call(item)?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(percentile(&sorted(us), 0.5))
}

fn texts(stmts: &[Stmt]) -> Vec<String> {
    stmts.iter().map(Stmt::text).collect()
}

/// Query-path layers: parser, session, SCAPE, MEC engine, the sharded
/// sessions, the in-process coordinator, the wire codec.
pub fn query_layers(setup: &Setup) -> Res<Numbers> {
    let point = texts(&setup.pool(Class::Point).stmts);
    let scan = texts(&setup.pool(Class::Scan).stmts);
    let mec = texts(&setup.pool(Class::Mec).stmts);
    let point_pairwise: Vec<Stmt> = setup
        .pool(Class::Point)
        .stmts
        .iter()
        .filter(|s| s.is_pairwise() && !matches!(s, Stmt::Mec { .. }))
        .cloned()
        .collect();
    let location_mec: Vec<Stmt> = setup
        .pool(Class::Point)
        .stmts
        .iter()
        .filter(|s| matches!(s, Stmt::Mec { .. }))
        .cloned()
        .collect();
    sut::with_layers(&setup.base, |l: &Layers<'_>| -> Res<Numbers> {
        let exec = |via: Executor, pool: &[String], passes| {
            p50_us(pool, passes, |t| l.execute(via, t).map(drop))
        };
        let global_point = exec(Executor::Global, &point, 2)?;
        let global_scan = exec(Executor::Global, &scan, 3)?;
        let mut rows = 0usize;
        let scape_scan = p50_us(&setup.pool(Class::Scan).stmts, 3, |s| {
            rows += l.scape_rows(s)?;
            Ok(())
        })?;
        let rows_per_stmt = rows as f64 / (setup.pool(Class::Scan).stmts.len() * 4) as f64;
        let routed_before = l.coord_routed();
        let coord_point = exec(Executor::CoordInProc, &point, 2)?;
        let routed = (l.coord_routed() - routed_before) as f64 / (point.len() * 3) as f64;
        let (encode_us, decode_us) = l.proto_us(&point_pairwise[0], 200)?;
        Ok(vec![
            ("ql.parse_us", p50_us(&point, 4, |t| l.parse(t))?),
            ("ql.execute_point_us", global_point),
            (
                "scape.point_us",
                p50_us(&point_pairwise, 2, |s| l.scape_rows(s).map(drop))?,
            ),
            (
                "scape.count_us",
                p50_us(&point_pairwise, 2, |s| l.scape_count(s).map(drop))?,
            ),
            ("ql.execute_scan_us", global_scan),
            ("scape.scan_us", scape_scan),
            ("scape.rows_per_stmt", rows_per_stmt),
            (
                "core.mec_pairwise_us",
                p50_us(&setup.pool(Class::Mec).stmts, 2, |s| l.mec(s))?,
            ),
            (
                "core.mec_location_us",
                p50_us(&location_mec, 8, |s| l.mec(s))?,
            ),
            ("ql.execute_mec_us", exec(Executor::Global, &mec, 2)?),
            ("linalg.pinv_us_per_pivot", l.pinv_us_per_pivot(200)),
            (
                "shard.k1_tax_point_us",
                exec(Executor::ShardedK1, &point, 2)? - global_point,
            ),
            (
                "shard.k1_tax_scan_us",
                exec(Executor::ShardedK1, &scan, 3)? - global_scan,
            ),
            (
                "shard.k2_execute_point_us",
                exec(Executor::ShardedK2, &point, 2)?,
            ),
            ("coord.inproc_point_us", coord_point),
            ("coord.routed_per_stmt", routed),
            ("coord.proto_encode_us", encode_us),
            ("coord.proto_decode_us", decode_us),
        ])
    })?
}

/// Refresh-path layers: the engine alone, fed the run's own tick batches
/// (same data, same order, so the same refreshes fall due), with the
/// journal armed when the workload arms it.
pub fn stream_layers(setup: &Setup, spec: &Spec, dir: &Path, tr: &mut Tracer) -> Res<Numbers> {
    // No refresh falls due on its own: each is called, and so timed and
    // classified, right after its batch.
    let mut engine = Engine::boot(&setup.base, u64::MAX)?;
    if spec.persist_armed {
        engine.persist_to(dir, &mut Tracer::off())?;
    }
    let (mut push_s, mut delta_ms, mut full_ms, mut refit, mut record_bytes) =
        (0.0, Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..spec.refresh_batches {
        push_s += engine.push_ticks(&setup.replay, spec.refresh_every)?;
        let journal_before = sut::journal_bytes(dir);
        let r = engine.refresh(tr)?;
        if r.full {
            full_ms.push(r.seconds * 1e3);
        } else {
            delta_ms.push(r.seconds * 1e3);
            refit.push(r.refit_pairs as f64);
            record_bytes.push(sut::journal_bytes(dir).saturating_sub(journal_before) as f64);
        }
    }
    let refreshes = (delta_ms.len() + full_ms.len()) as f64;
    let record = median(&record_bytes) as usize;
    let journal_append_ms = if record > 0 {
        sut::journal_append_ms(&dir.join("journal-probe"), record, 9)?
    } else {
        0.0
    };
    let all_ms: Vec<f64> = delta_ms.iter().chain(&full_ms).copied().collect();
    Ok(vec![
        (
            "stream.push_us_per_tick",
            push_s * 1e6 / (spec.refresh_batches as u64 * spec.refresh_every) as f64,
        ),
        ("stream.refresh_delta_ms", median(&delta_ms)),
        ("stream.refresh_full_ms", median(&full_ms)),
        ("stream.delta_share", delta_ms.len() as f64 / refreshes),
        ("stream.delta_refit_pairs", median(&refit)),
        ("stream.journal_append_ms", journal_append_ms),
        // not a metric: the engine's own median, for serve.epoch_publish_ms
        ("engine.refresh_p50_ms", median(&all_ms)),
    ])
}
