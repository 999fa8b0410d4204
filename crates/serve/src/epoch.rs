//! Immutable model epochs and their atomic publication cell.
//!
//! A [`ModelEpoch`] freezes one refresh of the AFFINITY model — the
//! series labels, the affine relationships, and the SCAPE index — behind
//! a ready-to-run query [`Session`]. Epochs are immutable after
//! construction and shared by `Arc`, so any number of readers can
//! execute against one concurrently while the streaming side builds the
//! next; [`EpochCell::publish`] swaps the current epoch atomically and
//! in-flight queries simply finish on the epoch they started with.

use affinity_core::symex::AffineSet;
use affinity_data::DataMatrix;
use affinity_ql::{CancelToken, QlError, QueryOutput, Session};
use affinity_scape::ScapeIndex;
use affinity_shard::ShardedModel;
use affinity_stream::{Model, PersistedModel};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One frozen, queryable model refresh.
///
/// The struct is self-contained: it owns the affine set (behind an
/// `Arc`) and the query session borrowing it, so an epoch stays valid
/// for as long as any reader holds it — independent of the streaming
/// engine that produced it.
pub struct ModelEpoch {
    /// Declared first so it drops before the `Arc` it borrows from.
    ///
    /// The `'static` lifetime is forged: the session actually borrows
    /// the model inside `self.model`. It is sound because (a) the
    /// borrow target is pinned on the heap by its `Arc` and never
    /// replaced for the life of `self`, (b) field order drops the
    /// session before the `Arc`, and (c) the field is private and no
    /// API hands out a `&Session` that could outlive `self`.
    session: Session<'static>,
    /// Keeps the session's borrow target alive; never swapped.
    model: EpochModel,
    epoch_id: u64,
    built_at: u64,
    poisoned: AtomicBool,
}

/// The heap-pinned model a frozen session borrows from.
enum EpochModel {
    /// Monolithic epoch: the session borrows the affine set.
    Global(Arc<AffineSet>),
    /// Sharded epoch: the session borrows the merge layer, re-cut from
    /// the global model for every publication.
    Sharded(Arc<ShardedModel>),
}

// Compile-time proof the forged-'static session still crosses threads
// safely (everything inside is owned data or `&AffineSet`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ModelEpoch>();
};

impl std::fmt::Debug for ModelEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelEpoch")
            .field("epoch_id", &self.epoch_id)
            .field("built_at", &self.built_at)
            .field("poisoned", &self.poisoned.load(Ordering::Relaxed))
            .finish()
    }
}

impl ModelEpoch {
    /// Freeze owned model parts into an epoch. `data` is only read
    /// during session preprocessing (the epoch keeps no reference to
    /// it); `labels` may be empty to auto-generate `S0..S{n-1}`.
    ///
    /// # Errors
    /// [`QlError::Engine`] on a label/series-count mismatch.
    pub fn from_owned(
        data: &DataMatrix,
        affine: AffineSet,
        index: ScapeIndex,
        labels: Vec<String>,
        epoch_id: u64,
        built_at: u64,
    ) -> Result<Arc<Self>, QlError> {
        let affine = Arc::new(affine);
        // SAFETY: see the `session` field docs — the borrow target is
        // heap-pinned by `affine`, which outlives `session` by field
        // order and is never mutated or replaced.
        let affine_ref: &'static AffineSet = unsafe { &*Arc::as_ptr(&affine) };
        let session = Session::from_parts(data, affine_ref, index, labels)?;
        Ok(Arc::new(ModelEpoch {
            session,
            model: EpochModel::Global(affine),
            epoch_id,
            built_at,
            poisoned: AtomicBool::new(false),
        }))
    }

    /// Freeze a sharded model into an epoch. A shard server builds
    /// `model` with `ShardedModel::from_global` from the streaming
    /// engine's current global model, once per refresh.
    ///
    /// `labels` may be empty to auto-generate `S0..S{n-1}`.
    ///
    /// # Errors
    /// [`QlError::Engine`] on a label/series-count mismatch.
    pub fn from_sharded(
        model: Arc<ShardedModel>,
        labels: Vec<String>,
        epoch_id: u64,
        built_at: u64,
    ) -> Result<Arc<Self>, QlError> {
        // SAFETY: see the `session` field docs — the borrow target is
        // heap-pinned by `model`, which outlives `session` by field
        // order and is never mutated or replaced.
        let model_ref: &'static ShardedModel = unsafe { &*Arc::as_ptr(&model) };
        let session = Session::from_sharded(model_ref, labels)?;
        Ok(Arc::new(ModelEpoch {
            session,
            model: EpochModel::Sharded(model),
            epoch_id,
            built_at,
            poisoned: AtomicBool::new(false),
        }))
    }

    /// Freeze a streaming engine's current [`Model`] (cloning its
    /// parts; the engine keeps refreshing independently).
    ///
    /// # Errors
    /// [`QlError::Engine`] on a label/series-count mismatch.
    pub fn from_model(
        model: &Model,
        labels: Vec<String>,
        epoch_id: u64,
    ) -> Result<Arc<Self>, QlError> {
        Self::from_owned(
            model.data(),
            model.affine().clone(),
            model.index().clone(),
            labels,
            epoch_id,
            model.built_at,
        )
    }

    /// Freeze a crash-recovered [`PersistedModel`] (moving its parts).
    ///
    /// # Errors
    /// [`QlError::Engine`] on a label/series-count mismatch.
    pub fn from_persisted(
        model: PersistedModel,
        labels: Vec<String>,
        epoch_id: u64,
    ) -> Result<Arc<Self>, QlError> {
        let built_at = model.built_at;
        Self::from_owned(
            &model.data,
            model.affine,
            model.index,
            labels,
            epoch_id,
            built_at,
        )
    }

    /// Execute one statement against this epoch under a cancel token.
    ///
    /// # Errors
    /// See [`QlError`]; a poisoned epoch (injected fault) reports
    /// [`QlError::Engine`] instead of answering.
    pub fn execute(&self, statement: &str, token: &CancelToken) -> Result<QueryOutput, QlError> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(QlError::Engine(format!(
                "epoch {} poisoned (injected fault)",
                self.epoch_id
            )));
        }
        self.session.execute_with(statement, token)
    }

    /// Monotonic publication number of this epoch.
    pub fn epoch_id(&self) -> u64 {
        self.epoch_id
    }

    /// Tick count the underlying model was built at.
    pub fn built_at(&self) -> u64 {
        self.built_at
    }

    /// Number of series this epoch answers over.
    pub fn series_count(&self) -> usize {
        match &self.model {
            EpochModel::Global(affine) => affine.series_count(),
            EpochModel::Sharded(model) => model.series_count(),
        }
    }

    /// The sharded model behind this epoch, when there is one (shard
    /// servers answer coordinator requests from it).
    pub fn sharded(&self) -> Option<&ShardedModel> {
        match &self.model {
            EpochModel::Global(_) => None,
            EpochModel::Sharded(model) => Some(model),
        }
    }

    /// Mark this epoch as poisoned: every subsequent [`execute`]
    /// returns a typed error. Fault-injection hook for the chaos suite.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    /// Whether [`poison`](ModelEpoch::poison) was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }
}

/// The atomic publication point: readers take a cheap `Arc` clone of
/// the current epoch; a refresh installs its successor with a single
/// swap. Readers never block on a rebuild and never observe a torn
/// epoch — labels, relationships, and index always come from the same
/// freeze.
#[derive(Debug)]
pub struct EpochCell {
    current: RwLock<Arc<ModelEpoch>>,
    published: AtomicU64,
}

impl EpochCell {
    /// Install the first epoch.
    pub fn new(initial: Arc<ModelEpoch>) -> Self {
        EpochCell {
            current: RwLock::new(initial),
            published: AtomicU64::new(1),
        }
    }

    /// The epoch new queries should execute against.
    pub fn current(&self) -> Arc<ModelEpoch> {
        Arc::clone(&self.current.read())
    }

    /// Atomically replace the current epoch; readers holding the old
    /// one finish on it. Returns the total publication count.
    pub fn publish(&self, next: Arc<ModelEpoch>) -> u64 {
        *self.current.write() = next;
        self.published.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Total number of epochs published (the initial one included) —
    /// one side of the chaos suite's epoch ledger.
    pub fn published(&self) -> u64 {
        self.published.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_core::measures::Measure;
    use affinity_core::prelude::*;
    use affinity_data::generator::{sensor_dataset, SensorConfig};

    fn epoch(id: u64) -> Arc<ModelEpoch> {
        let data = sensor_dataset(&SensorConfig::reduced(10, 32));
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let index = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        ModelEpoch::from_owned(&data, affine, index, data.labels().to_vec(), id, 0).unwrap()
    }

    #[test]
    fn epoch_answers_queries_after_source_data_is_gone() {
        let e = epoch(1);
        // `data` and the original affine set are out of scope here; the
        // epoch is self-contained.
        let out = e
            .execute("MET correlation > 0.5", &CancelToken::new())
            .unwrap();
        assert!(matches!(out, QueryOutput::Pairs(_)));
        assert_eq!(e.epoch_id(), 1);
        assert_eq!(e.series_count(), 10);
    }

    #[test]
    fn poisoned_epoch_reports_typed_error() {
        let e = epoch(7);
        assert!(!e.is_poisoned());
        e.poison();
        assert!(e.is_poisoned());
        let err = e
            .execute("MET correlation > 0.5", &CancelToken::new())
            .unwrap_err();
        assert!(matches!(err, QlError::Engine(_)));
        assert!(err.to_string().contains("poisoned"));
    }

    #[test]
    fn publish_swaps_and_counts() {
        let cell = EpochCell::new(epoch(1));
        assert_eq!(cell.published(), 1);
        let held = cell.current();
        assert_eq!(cell.publish(epoch(2)), 2);
        assert_eq!(cell.current().epoch_id(), 2);
        // The reader that grabbed epoch 1 still finishes on it.
        assert_eq!(held.epoch_id(), 1);
        assert!(held.execute("MEC mean OF 0", &CancelToken::new()).is_ok());
    }
}
