//! Sharded epoch swaps under concurrency.
//!
//! A shard server refreshes its global model with a [`StreamingEngine`]
//! and re-cuts it with [`ShardedModel::from_global`] for every epoch it
//! publishes. Racing readers pin an epoch and must always see an
//! internally consistent cross-shard answer: the epoch's session output
//! equals a session built fresh from the very shard set the epoch
//! holds, bit-for-bit, and the epoch ledger stays balanced.

use affinity_core::measures::Measure;
use affinity_par::ThreadPool;
use affinity_ql::{CancelToken, Session};
use affinity_serve::{EpochCell, ModelEpoch};
use affinity_shard::{ShardPlan, ShardedModel};
use affinity_stream::{StreamingConfig, StreamingEngine};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

const N: usize = 12;
const WIDTH: usize = 16;

const QUERIES: &[&str] = &[
    "MET correlation > 0.5",
    "MER covariance BETWEEN -1000 AND 1000",
    "MEC mean OF S0, S5, S11",
    "MET mean > 0",
];

/// Period-`WIDTH` deterministic tick (window stats are tick-invariant
/// until a step is injected).
fn tick(t: u64, stepped: &[usize], step: f64) -> Vec<f64> {
    (0..N)
        .map(|v| {
            let phase = (t as usize + 3 * v) % WIDTH;
            let base = (phase * phase % 23) as f64 + v as f64;
            if stepped.contains(&v) {
                base + step
            } else {
                base
            }
        })
        .collect()
}

fn warm_engine() -> (StreamingEngine, u64) {
    let mut engine = StreamingEngine::new(N, StreamingConfig::new(WIDTH));
    let mut t = 0u64;
    while engine.model().is_none() {
        engine.push(&tick(t, &[], 0.0)).unwrap();
        t += 1;
    }
    (engine, t)
}

/// Freeze the engine's current global model the way a shard server
/// does: re-cut it along the shape-derived 3-shard plan, then publish
/// the sharded model as one epoch.
fn sharded_epoch(
    engine: &StreamingEngine,
    pool: &Arc<ThreadPool>,
    epoch_id: u64,
) -> Arc<ModelEpoch> {
    let model = engine.model().unwrap();
    let sharded = ShardedModel::from_global(
        model.data(),
        model.affine(),
        ShardPlan::blocked(N, 3),
        &Measure::EXTENDED,
        Arc::clone(pool),
    )
    .unwrap();
    ModelEpoch::from_sharded(Arc::new(sharded), Vec::new(), epoch_id, model.built_at).unwrap()
}

/// Readers racing sharded publications: every pinned epoch answers
/// exactly like a session built directly from that epoch's shard set —
/// no torn cross-shard state — and epoch ids are monotone per reader.
#[test]
fn refresh_race_yields_no_torn_cross_shard_answers() {
    const PUBLICATIONS: u64 = 6;
    const READERS: usize = 4;

    let pool = Arc::new(ThreadPool::new(1));
    let (engine, t0) = warm_engine();
    let cell = Arc::new(EpochCell::new(sharded_epoch(&engine, &pool, 0)));
    let done = Arc::new(AtomicBool::new(false));
    let observations = Arc::new(AtomicU64::new(0));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            let observations = Arc::clone(&observations);
            thread::spawn(move || {
                let token = CancelToken::new();
                let mut last_epoch = 0u64;
                while !done.load(Ordering::Acquire) {
                    let epoch = cell.current();
                    assert!(epoch.epoch_id() >= last_epoch, "epoch went backwards");
                    last_epoch = epoch.epoch_id();
                    // Reference session over the *same* shard set the
                    // epoch pinned: any divergence means a torn pairing
                    // of session state with shard state.
                    let model = epoch.sharded().expect("sharded epoch");
                    let reference = Session::from_sharded(model, Vec::new()).unwrap();
                    for q in QUERIES {
                        let got = epoch.execute(q, &token).unwrap().to_string();
                        let want = reference.execute(q).unwrap().to_string();
                        assert_eq!(got, want, "torn answer for `{q}`");
                    }
                    observations.fetch_add(1, Ordering::Relaxed);
                }
                last_epoch
            })
        })
        .collect();

    // Writer: drive drift → refresh → publish, on this thread.
    let mut engine = engine;
    let mut t = t0;
    for epoch_id in 1..=PUBLICATIONS {
        let stepped = [(epoch_id as usize) % N];
        let was = engine.refreshes();
        while engine.refreshes() == was {
            engine.push(&tick(t, &stepped, 35.0)).unwrap();
            t += 1;
        }
        cell.publish(sharded_epoch(&engine, &pool, epoch_id));
    }
    done.store(true, Ordering::Release);
    for r in readers {
        let last = r.join().expect("reader panicked");
        assert!(last <= PUBLICATIONS);
    }
    // Ledger balanced: the initial epoch plus exactly our
    // publications, nothing lost or duplicated, and the cell ends on
    // the final epoch.
    assert_eq!(cell.published(), PUBLICATIONS + 1);
    assert_eq!(cell.current().epoch_id(), PUBLICATIONS);
    assert!(
        observations.load(Ordering::Relaxed) > 0,
        "readers never ran"
    );
}
