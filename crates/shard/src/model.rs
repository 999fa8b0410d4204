//! The sharded model: per-shard engines + indexes behind one exact
//! cross-shard merge layer.
//!
//! Every shard holds a *partition of the global model* — the same
//! fitted relationships, pivots, and series fits the unsharded build
//! produces, split by owner ([`crate::ShardPlan`]) — so per-shard
//! answers are fragments of the global answer, and merging is exact:
//!
//! * **Pair queries** (MET/MER over T- and D-measures): every pair
//!   lives in exactly one shard (the owner of its pivot's common
//!   series). The global scan emits output per pivot node in global
//!   pivot order; each shard's grouped scan emits the same chunks
//!   tagged with its pivots' *global ordinals*, so sorting chunks by
//!   ordinal and concatenating reproduces the global output
//!   bit-for-bit.
//! * **Location queries**: every series lives in exactly one shard's
//!   location trees (ownership mask at build). All shards share the
//!   cluster model, so within a cluster the ξ keys are comparable;
//!   merging by `(ξ, series)` reproduces the global tree order
//!   (equal-ξ runs are series-ascending by construction).
//! * **Counts**: per-shard subtree counts sum exactly (disjoint
//!   support).
//! * **MEC**: pair values route to the owning shard's engine; location
//!   values route to the series' owner.

use crate::error::ShardError;
use crate::plan::ShardPlan;
use affinity_core::affine::{PivotPair, PivotStats};
use affinity_core::error::CoreError;
use affinity_core::hash::FxHashMap;
use affinity_core::measures::{LocationMeasure, Measure, PairwiseMeasure};
use affinity_core::mec::{require_distinct, MecEngine};
use affinity_core::symex::AffineSet;
use affinity_data::{SequencePair, SeriesId};
use affinity_linalg::Matrix;
use affinity_par::ThreadPool;
use affinity_scape::{Filter, ScapeError, ScapeIndex};
use std::sync::Arc;

/// Lexicographic rank of pair `(u, v)` (`u < v`) among all `n·(n−1)/2`
/// pairs — the order of `DataMatrix::sequence_pairs`.
#[inline]
fn pair_rank(n: usize, u: usize, v: usize) -> usize {
    u * n - u * (u + 1) / 2 + (v - u - 1)
}

/// Model-wide state shared by every shard: the plan and the marginal
/// normalizer tables. Deliberately holds **no**
/// reference data matrix — a pure query model (including one built
/// out-of-core) never materializes the data.
#[derive(Clone)]
pub(crate) struct SharedCore {
    pub(crate) plan: ShardPlan,
    pub(crate) series_count: usize,
    pub(crate) samples: usize,
    pub(crate) indexed: Vec<Measure>,
    /// Per-series variances over the reference data (full length).
    pub(crate) variances: Arc<Vec<f64>>,
    /// Per-series self dot products over the reference data.
    pub(crate) self_dots: Arc<Vec<f64>>,
}

/// One shard: a partition of the global affine set with its own MEC
/// engine and SCAPE index. Immutable after construction.
pub struct ShardModel {
    /// Declared first so it drops before the `Arc` it borrows from.
    ///
    /// The `'static` lifetime is forged: the engine actually borrows
    /// `*self.affine`. It is sound because (a) `affine` is pinned on
    /// the heap by its `Arc` and never replaced for the life of `self`,
    /// (b) field order drops the engine before the `Arc`, and (c) the
    /// field is private and no API hands out a borrow that could
    /// outlive `self`.
    pub(crate) engine: MecEngine<'static>,
    /// Keeps the engine's borrow target alive; never swapped.
    pub(crate) affine: Arc<AffineSet>,
    pub(crate) index: ScapeIndex,
    /// Global pivot ordinal of each local pivot (same order as
    /// `affine.pivots()`): the merge key for pair queries.
    pub(crate) ordinals: Vec<u32>,
    /// Series owned by this shard, ascending.
    pub(crate) owned: Vec<u32>,
}

// Compile-time proof the forged-'static engine still crosses threads
// safely (everything inside is owned data or `&AffineSet`).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardModel>();
};

impl std::fmt::Debug for ShardModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardModel")
            .field("pivots", &self.affine.pivots().len())
            .field("relationships", &self.affine.len())
            .field("owned", &self.owned.len())
            .finish()
    }
}

impl ShardModel {
    /// Assemble a shard from its partitioned affine set and
    /// already-built index. `stats` must align with `affine.pivots()`;
    /// `variances`/`self_dots` are the full-length global tables.
    #[allow(clippy::too_many_arguments)] // crate-internal constructor: the parts are produced together by the partitioned build
    pub(crate) fn assemble(
        affine: AffineSet,
        index: ScapeIndex,
        stats: &[PivotStats],
        ordinals: Vec<u32>,
        owned: Vec<u32>,
        variances: &[f64],
        self_dots: &[f64],
        pool: Arc<ThreadPool>,
    ) -> Result<ShardModel, ShardError> {
        let affine = Arc::new(affine);
        // SAFETY: see the `engine` field docs — the borrow target is
        // heap-pinned by `affine`, which outlives `engine` by field
        // order and is never mutated or replaced.
        let affine_ref: &'static AffineSet = unsafe { &*Arc::as_ptr(&affine) };
        let mut stat_map: FxHashMap<PivotPair, PivotStats> = FxHashMap::default();
        for (p, s) in affine_ref.pivots().iter().zip(stats) {
            stat_map.insert(*p, *s);
        }
        let engine = MecEngine::from_parts(
            affine_ref,
            stat_map,
            variances.to_vec(),
            self_dots.to_vec(),
            pool,
        )?;
        Ok(ShardModel {
            engine,
            affine,
            index,
            ordinals,
            owned,
        })
    }

    /// The shard's partition of the global affine set.
    pub fn affine(&self) -> &AffineSet {
        &self.affine
    }

    /// The shard's SCAPE index (pair trees over its pivot groups,
    /// location trees over its owned series).
    pub fn index(&self) -> &ScapeIndex {
        &self.index
    }

    /// Series owned by this shard, ascending.
    pub fn owned(&self) -> &[u32] {
        &self.owned
    }

    /// Global pivot ordinals of this shard's pivots, in local order.
    pub fn ordinals(&self) -> &[u32] {
        &self.ordinals
    }

    /// A pairwise measure for one pair held by *this* shard's engine.
    /// Callers route: the pair must live in this shard's partition
    /// (check with [`has_pair`](ShardModel::has_pair)).
    ///
    /// # Errors
    /// [`CoreError::MissingRelationship`] if this shard does not hold
    /// the pair.
    pub fn pair_value(
        &self,
        measure: PairwiseMeasure,
        pair: SequencePair,
    ) -> Result<f64, CoreError> {
        self.engine.pair_value(measure, pair)
    }

    /// A location measure for one series via this shard's engine. The
    /// value is authoritative only for series this shard owns.
    ///
    /// # Errors
    /// [`CoreError::UnknownSeries`] for out-of-range identifiers.
    pub fn location_value(&self, measure: LocationMeasure, v: SeriesId) -> Result<f64, CoreError> {
        self.engine.location_value(measure, v)
    }

    /// Tag grouped index chunks with their global pivot ordinals (the
    /// splice key) onto `out`.
    fn tag_chunks(
        &self,
        grouped: Vec<(usize, Vec<SequencePair>)>,
        out: &mut Vec<(u32, Vec<SequencePair>)>,
    ) -> Result<(), ScapeError> {
        for (q, chunk) in grouped {
            let ordinal = self.ordinals.get(q).ok_or(ScapeError::DeltaMismatch {
                detail: "local pivot without a global ordinal",
            })?;
            out.push((*ordinal, chunk));
        }
        Ok(())
    }

    /// `true` if this shard's partition holds the relationship for
    /// `pair` (exactly one shard of a model answers `true` per pair).
    pub fn has_pair(&self, pair: SequencePair) -> bool {
        self.affine.relationship(pair).is_some()
    }
}

/// The cross-shard merge layer: answers every MEC/MET/MER/count query
/// bit-identically to the unsharded model it was partitioned from.
///
/// Cloning is cheap — the shards themselves are shared by `Arc`.
#[derive(Clone)]
pub struct ShardedModel {
    pub(crate) shared: SharedCore,
    pub(crate) shards: Vec<Arc<ShardModel>>,
}

impl std::fmt::Debug for ShardedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedModel")
            .field("shards", &self.shards.len())
            .field("series", &self.shared.series_count)
            .field("samples", &self.shared.samples)
            .finish()
    }
}

impl ShardedModel {
    /// Number of series across all shards.
    pub fn series_count(&self) -> usize {
        self.shared.series_count
    }

    /// Samples per series of the reference data.
    pub fn samples(&self) -> usize {
        self.shared.samples
    }

    /// The fixed series → shard plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.shared.plan
    }

    /// Measures the shard indexes were built over.
    pub fn indexed(&self) -> &[Measure] {
        &self.shared.indexed
    }

    /// The shards, in plan order.
    pub fn shards(&self) -> &[Arc<ShardModel>] {
        &self.shards
    }

    /// `true` if the given measure can be queried (every shard indexes
    /// the same measure list, so shard 0 answers for all).
    pub fn supports(&self, measure: Measure) -> bool {
        self.shards
            .first()
            .is_some_and(|s| s.index.supports(measure))
    }

    /// Owning shard of series `v` (for in-range ids; callers with
    /// possibly-bad ids fall through to shard 0, whose engine produces
    /// the canonical range error).
    fn owner_of(&self, v: SeriesId) -> usize {
        self.shared.plan.shard_of(v).unwrap_or(0)
    }

    // --- MET / MER (index) -----------------------------------------

    /// MET / MER over a pairwise measure; bit-identical to the global
    /// [`ScapeIndex::search_pairs`] (chunks spliced in global pivot
    /// order).
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`], [`ScapeError::MeasureNotIndexed`], or
    /// [`ScapeError::Cancelled`].
    pub fn search_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        cancel: &dyn Fn() -> bool,
    ) -> Result<Vec<SequencePair>, ScapeError> {
        let mut chunks: Vec<(u32, Vec<SequencePair>)> = Vec::new();
        for shard in &self.shards {
            let grouped = shard.index.search_pairs_grouped(measure, filter, cancel)?;
            shard.tag_chunks(grouped, &mut chunks)?;
        }
        Ok(splice_chunks(chunks))
    }

    /// MET / MER over a location measure; bit-identical to the global
    /// [`ScapeIndex::search_series`] (per-cluster `(ξ, series)` merge).
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn search_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
    ) -> Result<Vec<SeriesId>, ScapeError> {
        let per_shard = self
            .shards
            .iter()
            .map(|s| s.index.search_series_keyed(measure, filter))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(merge_keyed_series(per_shard))
    }

    // --- Counts ----------------------------------------------------

    /// Pair result count without materializing (per-shard subtree
    /// counts summed; supports are disjoint, so the sum is exact).
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn count_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
    ) -> Result<usize, ScapeError> {
        let mut total = 0usize;
        for shard in &self.shards {
            total += shard.index.count_pairs(measure, filter)?;
        }
        Ok(total)
    }

    /// Series result count without materializing.
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn count_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
    ) -> Result<usize, ScapeError> {
        let mut total = 0usize;
        for shard in &self.shards {
            total += shard.index.count_series(measure, filter)?;
        }
        Ok(total)
    }

    // --- MEC (engine) ----------------------------------------------

    /// A pairwise measure for one pair, via its owning shard's engine
    /// (the pair lives in exactly one shard).
    ///
    /// # Errors
    /// [`CoreError::MissingRelationship`] if no shard holds the pair.
    pub fn pair_value(
        &self,
        measure: PairwiseMeasure,
        pair: SequencePair,
    ) -> Result<f64, CoreError> {
        for shard in &self.shards {
            if shard.affine.relationship(pair).is_some() {
                return shard.engine.pair_value(measure, pair);
            }
        }
        Err(CoreError::MissingRelationship {
            u: pair.u,
            v: pair.v,
        })
    }

    /// A location measure for one series, via its owner's engine.
    ///
    /// # Errors
    /// [`CoreError::UnknownSeries`] for out-of-range identifiers.
    pub fn location_value(&self, measure: LocationMeasure, v: SeriesId) -> Result<f64, CoreError> {
        match self.shards.get(self.owner_of(v)) {
            Some(shard) => shard.engine.location_value(measure, v),
            None => Err(CoreError::UnknownSeries {
                id: v,
                series: self.shared.series_count,
            }),
        }
    }

    /// MEC location query over a set of identifiers, one value per id,
    /// routed per id to the owning shard.
    ///
    /// # Errors
    /// [`CoreError::UnknownSeries`] for out-of-range identifiers.
    pub fn location(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
    ) -> Result<Vec<f64>, CoreError> {
        let n = self.shared.series_count;
        if let Some(&bad) = ids.iter().find(|&&v| v >= n) {
            return Err(CoreError::UnknownSeries { id: bad, series: n });
        }
        ids.iter()
            .map(|&v| self.location_value(measure, v))
            .collect()
    }

    /// MEC pairwise matrix over a set of identifiers; mirrors the
    /// global engine's diagonal conventions exactly and fills
    /// off-diagonals through [`pair_value`](ShardedModel::pair_value)
    /// (bit-identical to both the global scalar and batched paths).
    ///
    /// # Errors
    /// [`CoreError::UnknownSeries`] for out-of-range identifiers,
    /// [`CoreError::DuplicateSeries`] if an identifier repeats,
    /// [`CoreError::MissingRelationship`] for uncovered pairs.
    pub fn pairwise(
        &self,
        measure: PairwiseMeasure,
        ids: &[SeriesId],
    ) -> Result<Matrix, CoreError> {
        let n = self.shared.series_count;
        if let Some(&bad) = ids.iter().find(|&&v| v >= n) {
            return Err(CoreError::UnknownSeries { id: bad, series: n });
        }
        require_distinct(ids)?;
        let q = ids.len();
        let mut out = Matrix::zeros(q, q);
        for (i, &a) in ids.iter().enumerate() {
            let diag = self
                .diag_value(measure, a)
                .ok_or(CoreError::UnknownSeries { id: a, series: n })?;
            out.set(i, i, diag);
            for (j, &b) in ids.iter().enumerate().skip(i + 1) {
                let v = self.pair_value(measure, SequencePair::new(a, b))?;
                out.set(i, j, v);
                out.set(j, i, v);
            }
        }
        Ok(out)
    }

    /// The matrix-diagonal convention of [`pairwise`](ShardedModel::pairwise)
    /// as a scalar: variance for covariance, self dot product for dot
    /// product, `1.0` for the derived measures. `None` for out-of-range
    /// ids. Every shard shares the global normalizer tables, so any
    /// shard of a model answers identically — remote coordinators may
    /// ask whichever shard is healthy.
    pub fn diag_value(&self, measure: PairwiseMeasure, v: SeriesId) -> Option<f64> {
        match measure {
            PairwiseMeasure::Covariance => self.shared.variances.get(v).copied(),
            PairwiseMeasure::DotProduct => self.shared.self_dots.get(v).copied(),
            PairwiseMeasure::Correlation | PairwiseMeasure::Cosine | PairwiseMeasure::Dice => {
                (v < self.shared.series_count).then_some(1.0)
            }
        }
    }

    /// A pairwise measure for every sequence pair, in the lexicographic
    /// order of `DataMatrix::sequence_pairs`. Each shard fills its own
    /// pairs' lexicographic slots; the shards' relationship sets
    /// partition the full pair set, so every slot is written once.
    ///
    /// # Errors
    /// [`CoreError::MissingRelationship`] if the shards do not cover
    /// every pair (a partial model).
    pub fn pairwise_all(&self, measure: PairwiseMeasure) -> Result<Vec<f64>, CoreError> {
        let n = self.shared.series_count;
        let total = n * (n - 1) / 2;
        let covered: usize = self.shards.iter().map(|s| s.affine.len()).sum();
        if covered != total {
            for u in 0..n {
                for v in u + 1..n {
                    let pair = SequencePair::new(u, v);
                    if !self
                        .shards
                        .iter()
                        .any(|s| s.affine.relationship(pair).is_some())
                    {
                        return Err(CoreError::MissingRelationship { u, v });
                    }
                }
            }
        }
        let mut out = vec![0.0; total];
        for shard in &self.shards {
            for rel in shard.affine.relationships() {
                let value = shard.engine.pair_value(measure, rel.pair)?;
                let slot = out.get_mut(pair_rank(n, rel.pair.u, rel.pair.v)).ok_or(
                    CoreError::UnknownSeries {
                        id: rel.pair.v,
                        series: n,
                    },
                )?;
                *slot = value;
            }
        }
        Ok(out)
    }
}

/// Splice per-pivot chunks tagged with global pivot ordinals into the
/// global emission order. Ordinals are unique across shards (each
/// global pivot lives in exactly one shard), so the sort is total.
///
/// Public because remote coordinators perform the same merge over
/// chunks that arrived off the wire instead of from in-process shards.
pub fn splice_chunks(mut chunks: Vec<(u32, Vec<SequencePair>)>) -> Vec<SequencePair> {
    chunks.sort_by_key(|&(g, _)| g);
    let mut out = Vec::with_capacity(chunks.iter().map(|(_, c)| c.len()).sum());
    for (_, chunk) in chunks {
        out.extend(chunk);
    }
    out
}

/// Merge per-shard keyed location answers into the global tree order:
/// within each cluster, ascending `(ξ, series)` — exactly the order a
/// global tree yields, because equal-ξ runs are series-ascending by
/// construction and every series appears in exactly one shard.
///
/// Public for the same reason as [`splice_chunks`]: the remote merge
/// path reuses the exact in-process logic. The per-shard order of the
/// outer vector is irrelevant (entries re-sort per cluster), but every
/// present answer must carry one inner vector per cluster.
pub fn merge_keyed_series(per_shard: Vec<Vec<Vec<(f64, SeriesId)>>>) -> Vec<SeriesId> {
    let clusters = per_shard.first().map_or(0, Vec::len);
    let mut out = Vec::new();
    let mut cluster_buf: Vec<(f64, SeriesId)> = Vec::new();
    for l in 0..clusters {
        cluster_buf.clear();
        for shard_answer in &per_shard {
            if let Some(entries) = shard_answer.get(l) {
                cluster_buf.extend_from_slice(entries);
            }
        }
        cluster_buf.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out.extend(cluster_buf.iter().map(|&(_, v)| v));
    }
    out
}
