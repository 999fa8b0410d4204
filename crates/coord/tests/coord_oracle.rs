//! The distributed-vs-monolithic equivalence oracle.
//!
//! A coordinator over `K` in-process shard backends must answer every
//! statement **bit-identically** to a local `Session` over the same
//! model — rendered output compared as exact strings, so a single
//! flipped mantissa bit fails. The in-process backends route through
//! [`affinity_coord::answer`], the same function remote shard servers
//! execute, so this oracle covers the merge layer for both transports
//! (the chaos suite re-proves it over real sockets).
//!
//! Also here: graceful-degradation typing against a fleet with a dead
//! backend (partial answers are `missing`-tagged, strict mode refuses
//! them as `UNAVAILABLE`, MEC pairwise refuses holes) and the
//! conservation ledger identities at quiescent points.

use affinity_coord::{
    BackendError, CoordStats, Coordinator, InProcBackend, ShardBackend, ShardRequest, ShardResponse,
};
use affinity_core::measures::Measure;
use affinity_core::prelude::{Symex, SymexParams};
use affinity_data::generator::{sensor_dataset, SensorConfig};
use affinity_data::DataMatrix;
use affinity_par::ThreadPool;
use affinity_ql::Session;
use affinity_scape::ScapeIndex;
use affinity_shard::{ShardPlan, ShardedModel};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn dataset() -> DataMatrix {
    sensor_dataset(&SensorConfig::reduced(18, 96))
}

fn sharded(data: &DataMatrix, k: usize, indexed: &[Measure]) -> ShardedModel {
    let affine = Symex::new(SymexParams::default())
        .run(data)
        .expect("affine fit");
    let plan = ShardPlan::blocked(data.series_count(), k);
    ShardedModel::from_global(data, &affine, plan, indexed, Arc::new(ThreadPool::new(2)))
        .expect("sharded build")
}

fn coordinator(model: &ShardedModel, strict: bool) -> (Coordinator, Arc<CoordStats>) {
    let stats = Arc::new(CoordStats::new());
    let backends: Vec<Arc<dyn ShardBackend>> = (0..model.plan().shards())
        .map(|i| Arc::new(InProcBackend::new(model, i, Arc::clone(&stats))) as _)
        .collect();
    let coord = Coordinator::new(backends, Vec::new(), strict, Arc::clone(&stats))
        .expect("coordinator construction");
    (coord, stats)
}

/// The statement battery: every measure through MET/MER/MEC/EXPLAIN,
/// plus boundary thresholds that return nothing or everything.
fn statements() -> Vec<String> {
    let mut stmts = Vec::new();
    for m in [
        "mean",
        "median",
        "mode",
        "covariance",
        "dot",
        "correlation",
        "cosine",
        "dice",
    ] {
        stmts.push(format!("MET {m} > 0.5"));
        stmts.push(format!("MET {m} < 0.2"));
        stmts.push(format!("MER {m} BETWEEN -0.25 AND 0.75"));
        stmts.push(format!("EXPLAIN MET {m} > 0.5"));
        stmts.push(format!("EXPLAIN MER {m} BETWEEN -0.25 AND 0.75"));
    }
    for m in ["mean", "median", "mode", "covariance", "correlation"] {
        stmts.push(format!("MEC {m} OF S0, S5, S11, S17"));
        stmts.push(format!("MEC {m} OF S3"));
        stmts.push(format!("EXPLAIN MEC {m} OF S0, S5, S11, S17"));
    }
    // Out-of-band thresholds: empty and full result sets must merge
    // identically too.
    stmts.push("MET correlation > 2.0".into());
    stmts.push("MET correlation < 2.0".into());
    stmts.push("MER mean BETWEEN -1e9 AND 1e9".into());
    // Inputs that guard the merge: repeated and mixed-form location
    // references, reversed and single-series pairwise requests, nested
    // EXPLAIN, a degenerate range, and non-finite bounds.
    for stmt in [
        "MEC mean OF S3, S3, S0",
        "MEC mean OF 17, S17",
        "MEC covariance OF S17 S0",
        "MEC correlation OF S1",
        "EXPLAIN EXPLAIN MET correlation > 0.5",
        "MER mean BETWEEN 5 AND 5",
        "MET correlation > NaN",
        "MER correlation BETWEEN NaN AND 1",
        "MET mean > inf",
    ] {
        stmts.push(stmt.into());
    }
    stmts
}

/// Render a statement's outcome (output or error) for exact compare.
fn run_local(session: &Session, stmt: &str) -> String {
    match session.execute(stmt) {
        Ok(out) => format!("OK\n{out}"),
        Err(e) => format!("ERR {e}"),
    }
}

fn run_coord(coord: &Coordinator, stmt: &str) -> String {
    match coord.execute(stmt) {
        Ok(ans) => {
            assert!(
                ans.missing.is_empty(),
                "healthy fleet answered {stmt:?} degraded: missing {:?}",
                ans.missing
            );
            format!("OK\n{}", ans.output)
        }
        Err(e) => format!("ERR {}", e.message),
    }
}

#[test]
fn distributed_answers_are_bit_identical_for_k_1_2_4() {
    let data = dataset();
    for k in [1usize, 2, 4] {
        let model = sharded(&data, k, &Measure::EXTENDED);
        let session = Session::from_sharded(&model, Vec::new()).expect("local session");
        let (coord, stats) = coordinator(&model, false);
        for stmt in statements() {
            let local = run_local(&session, &stmt);
            let dist = run_coord(&coord, &stmt);
            assert_eq!(local, dist, "K={k} diverged on {stmt:?}");
        }
        assert!(
            stats.balanced(),
            "K={k} ledger unbalanced: {}",
            stats.render()
        );
    }
}

#[test]
fn scan_fallback_merges_bit_identically() {
    // Index only covariance: correlation/cosine/dice/location measures
    // fall to the full-scan path, whose coordinator-side re-sort must
    // recover the monolithic order exactly.
    let data = dataset();
    let model = sharded(
        &data,
        3,
        &[Measure::Pairwise(
            affinity_core::measures::PairwiseMeasure::Covariance,
        )],
    );
    let session = Session::from_sharded(&model, Vec::new()).expect("local session");
    let (coord, stats) = coordinator(&model, false);
    for stmt in [
        "MET correlation > 0.5",
        "MET cosine < 0.9",
        "MER dice BETWEEN 0.1 AND 0.9",
        "MET mean > 0.0",
        "MER median BETWEEN -1.0 AND 1.0",
        "EXPLAIN MET correlation > 0.5",
        "EXPLAIN MET covariance > 0.5",
    ] {
        assert_eq!(
            run_local(&session, stmt),
            run_coord(&coord, stmt),
            "scan fallback diverged on {stmt:?}"
        );
    }
    assert!(stats.balanced(), "ledger unbalanced: {}", stats.render());
}

#[test]
fn unknown_series_and_empty_range_errors_match_locally() {
    let data = dataset();
    let model = sharded(&data, 2, &Measure::EXTENDED);
    let session = Session::from_sharded(&model, Vec::new()).expect("local session");
    let (coord, _) = coordinator(&model, false);
    for stmt in [
        "MEC mean OF S99",
        "MER correlation BETWEEN 2.0 AND -2.0",
        "NOT A STATEMENT",
    ] {
        assert_eq!(
            run_local(&session, stmt),
            run_coord(&coord, stmt),
            "error text diverged on {stmt:?}"
        );
    }
}

/// A pairwise MEC naming one series twice fails typed, with the same
/// wire code and text from the coordinator as from a monolithic session.
#[test]
fn repeated_mec_series_fail_alike_in_monolith_and_coordinator() {
    let data = dataset();
    let affine = Symex::new(SymexParams::default())
        .run(&data)
        .expect("affine fit");
    let index = ScapeIndex::build(&data, &affine, &Measure::EXTENDED).expect("index");
    let monolith =
        Session::from_parts(&data, &affine, index, Vec::new()).expect("monolithic session");
    let model = sharded(&data, 2, &Measure::EXTENDED);
    let (coord, _) = coordinator(&model, false);
    for stmt in ["MEC correlation OF S1, S1", "MEC covariance OF S0, S5, S0"] {
        let want = monolith.execute(stmt).expect_err("monolith must reject");
        let got = coord.execute(stmt).expect_err("coordinator must reject");
        assert_eq!(got.code, want.wire_code(), "wire code diverged on {stmt:?}");
        assert_eq!(got.message, want.to_string(), "text diverged on {stmt:?}");
    }
}

/// A backend that can be switched off: healthy at construction (so the
/// coordinator can collect `!meta`), then every call fails like a dead
/// socket past its retry budget.
struct KillableBackend {
    inner: InProcBackend,
    shard: usize,
    dead: Arc<AtomicBool>,
    stats: Arc<CoordStats>,
}

impl ShardBackend for KillableBackend {
    fn shard(&self) -> usize {
        self.shard
    }
    fn call(&self, req: &ShardRequest) -> Result<ShardResponse, BackendError> {
        if self.dead.load(Ordering::Acquire) {
            CoordStats::bump(&self.stats.routed);
            return Err(BackendError::Unavailable {
                shard: self.shard,
                reason: "injected: connection refused".into(),
            });
        }
        self.inner.call(req)
    }
}

fn killable_fleet(
    model: &ShardedModel,
    strict: bool,
) -> (Coordinator, Arc<CoordStats>, Vec<Arc<AtomicBool>>) {
    let stats = Arc::new(CoordStats::new());
    let switches: Vec<Arc<AtomicBool>> = (0..model.plan().shards())
        .map(|_| Arc::new(AtomicBool::new(false)))
        .collect();
    let backends: Vec<Arc<dyn ShardBackend>> = switches
        .iter()
        .enumerate()
        .map(|(i, dead)| {
            Arc::new(KillableBackend {
                inner: InProcBackend::new(model, i, Arc::clone(&stats)),
                shard: i,
                dead: Arc::clone(dead),
                stats: Arc::clone(&stats),
            }) as _
        })
        .collect();
    let coord = Coordinator::new(backends, Vec::new(), strict, Arc::clone(&stats))
        .expect("coordinator construction");
    (coord, stats, switches)
}

#[test]
fn degradation_is_typed_and_ledger_balances() {
    let data = dataset();
    let model = sharded(&data, 3, &Measure::EXTENDED);
    let (coord, stats, switches) = killable_fleet(&model, false);

    // Healthy first: complete answers.
    let ans = coord.execute("MET correlation > 0.5").expect("healthy");
    assert!(ans.missing.is_empty());

    // Kill shard 1: pair queries degrade and say exactly which shard
    // is missing — never a silent subset.
    switches[1].store(true, Ordering::Release);
    let ans = coord.execute("MET correlation > 0.5").expect("degraded");
    assert_eq!(ans.missing, vec![1], "missing shards must be typed");

    // A location statement owned entirely by a live shard still
    // answers completely.
    let owner0 = model.plan().assignments().iter().position(|&s| s == 0);
    if let Some(v) = owner0 {
        let ans = coord
            .execute(&format!("MEC mean OF S{v}"))
            .expect("live-owner MEC");
        assert!(ans.missing.is_empty(), "live-owner answer must be complete");
    }

    // MEC pairwise across the dead shard: a matrix with holes is wrong,
    // not partial — typed UNAVAILABLE.
    let dead_owned = model
        .plan()
        .assignments()
        .iter()
        .position(|&s| s == 1)
        .expect("shard 1 owns some series");
    let err = coord
        .execute(&format!("MEC correlation OF S0, S{dead_owned}"))
        .expect_err("cross-shard matrix with a dead shard");
    assert_eq!(err.code, "UNAVAILABLE");

    // Revive: complete answers come back without rebuilding anything.
    switches[1].store(false, Ordering::Release);
    let ans = coord.execute("MET correlation > 0.5").expect("revived");
    assert!(ans.missing.is_empty());

    assert!(stats.balanced(), "ledger unbalanced: {}", stats.render());
    let g = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Acquire);
    assert!(g(&stats.degraded_answers) >= 1, "degraded answers counted");
    assert!(g(&stats.unavailable) >= 1, "unavailable counted");
}

#[test]
fn strict_mode_refuses_partial_answers() {
    let data = dataset();
    let model = sharded(&data, 2, &Measure::EXTENDED);
    let (coord, stats, switches) = killable_fleet(&model, true);

    switches[0].store(true, Ordering::Release);
    let err = coord
        .execute("MET correlation > 0.5")
        .expect_err("strict must refuse a partial answer");
    assert_eq!(err.code, "UNAVAILABLE");
    assert!(
        err.message.contains("strict"),
        "error should say strict mode refused: {}",
        err.message
    );

    switches[0].store(false, Ordering::Release);
    coord
        .execute("MET correlation > 0.5")
        .expect("healthy strict fleet answers");
    assert!(stats.balanced(), "ledger unbalanced: {}", stats.render());
}
