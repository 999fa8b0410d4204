//! The MEC (measure computation) query engine — paper Sec. 4.1, the `W_A`
//! method of the evaluation.
//!
//! Construction performs the paper's pre-processing step: it computes and
//! stores the statistics of every pivot pair matrix (`O(nk)` pivot pairs,
//! each `O(m)` — *"this one-time cost dominates the Big-O complexity"*)
//! plus the separable normalizers (per-series variances) for the
//! D-measures. After that, every measure value is reconstructed from a
//! hash-map lookup and a 3-term scalar product — no raw series access.
//!
//! ## Batched sweeps
//!
//! Whole-sweep queries ([`MecEngine::pairwise_all`], and
//! [`MecEngine::pairwise`] above a small size threshold) do not walk the
//! relationship hash pair by pair. The first sweep stacks the β-vectors
//! of every pair anchored at one pivot into a `g×3`
//! [`Matrix`] (cached thereafter); a sweep is then **one GEMV-shaped
//! pass per pivot** —
//! `values = B·α` via the allocation-free [`Matrix::matvec_into`] —
//! followed by the separable normalizers, parallelized across pivots on
//! an [`affinity_par::ThreadPool`]. Per-pivot work items write disjoint
//! output slots (each pair has a fixed lexicographic index), so results
//! are merged deterministically and match the scalar
//! [`MecEngine::pair_value`] path exactly.

// Index-based loops over matrix coordinates are the clearest notation
// for these kernels.
#![allow(clippy::needless_range_loop)]
use crate::affine::{PivotPair, PivotStats};
use crate::error::CoreError;
use crate::hash::FxHashMap;
use crate::measures::{self, LocationMeasure, PairwiseMeasure};
use crate::symex::AffineSet;
use affinity_data::source::{prefetch_window, scan_sequence, with_column_buffers};
use affinity_data::{DataMatrix, SequencePair, SeriesId, SeriesSource};
use affinity_linalg::{vector, Matrix};
use affinity_par::{DisjointWriter, ThreadPool};
use parking_lot::Mutex;
use std::sync::OnceLock;

/// Below this many requested pair values, [`MecEngine::pairwise`] uses the
/// scalar per-pair path: grouping by pivot costs more than it saves.
const BATCH_THRESHOLD: usize = 64;

/// The batched query plan of one pivot: every pair anchored there, with
/// the β-vectors stacked into a `g×3` matrix (three contiguous
/// coefficient columns, so `B·α` is three `axpy` passes).
struct PivotBatch {
    pivot: PivotPair,
    /// `g×3`; row `j` is the β of `members[j]`.
    betas: Matrix,
    /// `(u, v, lexicographic pair index)` per member.
    members: Vec<(u32, u32, u32)>,
}

/// Lexicographic index of pair `(u, v)` (`u < v`) in the
/// [`DataMatrix::sequence_pairs`] order.
#[inline]
fn pair_rank(n: usize, u: usize, v: usize) -> usize {
    u * n - u * (u + 1) / 2 + (v - u - 1)
}

/// β-rows plus `(u, v, lexicographic index)` members accumulated for one
/// pivot while building the construction-time batches.
type RawBatch = (Vec<[f64; 3]>, Vec<(u32, u32, u32)>);

/// β-rows plus `(i, j)` output cells of one pivot group in an ad-hoc
/// [`MecEngine::pairwise`] subset sweep.
type SubsetGroup = (Vec<[f64; 3]>, Vec<(u32, u32)>);

/// Reject a pairwise MEC request that names one series twice: every
/// off-diagonal cell is a [`SequencePair`], which needs two distinct
/// members. Shared by every pairwise front-end (the engine, the sharded
/// merge layer, the coordinator) so they fail the same typed way.
///
/// # Errors
/// [`CoreError::DuplicateSeries`] naming the smallest repeated id.
pub fn require_distinct(ids: &[SeriesId]) -> Result<(), CoreError> {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    match sorted.windows(2).find(|w| w[0] == w[1]) {
        Some(w) => Err(CoreError::DuplicateSeries { id: w[0] }),
        None => Ok(()),
    }
}

/// MEC query engine answering measure computations through affine
/// relationships.
///
/// Construction is the only phase that reads raw series — it is generic
/// over [`SeriesSource`] ([`MecEngine::from_source`]), so the
/// pre-processing pass can stream columns from disk. After that, every
/// query is answered from pivot statistics, normalizers and β-vectors
/// alone; the engine holds **no reference to the data**.
pub struct MecEngine<'a> {
    series_count: usize,
    affine: &'a AffineSet,
    /// `pivotHash` with values filled in (paper Sec. 4.1).
    pivot_stats: FxHashMap<PivotPair, PivotStats>,
    /// Separable normalizers: exact per-series variances (correlation).
    variances: Vec<f64>,
    /// Separable normalizers: exact per-series self dot products
    /// (cosine, Dice).
    self_dots: Vec<f64>,
    /// Lazily computed location values of cluster centres, keyed by
    /// (measure tag, cluster).
    center_locations: Mutex<FxHashMap<(u8, usize), f64>>,
    /// Per-pivot β-matrices for GEMV-shaped sweeps, in pivot order;
    /// built lazily on the first whole-sweep query so engines that only
    /// answer scalar/location queries skip the O(n²) batch build.
    batches: OnceLock<Vec<PivotBatch>>,
    /// Pool for sweep parallelism; sized from the `threads` knob, or
    /// shared across engines via [`MecEngine::with_pool`].
    pool: std::sync::Arc<ThreadPool>,
}

fn measure_tag(m: LocationMeasure) -> u8 {
    match m {
        LocationMeasure::Mean => 0,
        LocationMeasure::Median => 1,
        LocationMeasure::Mode => 2,
    }
}

impl<'a> MecEngine<'a> {
    /// Build the engine, running the pre-processing step (pivot statistics
    /// + normalizers), with the thread count resolved automatically.
    ///
    /// # Panics
    /// Panics if `affine` was produced from a differently-shaped matrix.
    pub fn new(data: &DataMatrix, affine: &'a AffineSet) -> Self {
        Self::with_threads(data, affine, 0)
    }

    /// Like [`MecEngine::new`] with an explicit worker-lane count for the
    /// batched sweeps; `0` means [`std::thread::available_parallelism`].
    /// Results are bit-identical for every setting.
    ///
    /// # Panics
    /// Panics if `affine` was produced from a differently-shaped matrix.
    pub fn with_threads(data: &DataMatrix, affine: &'a AffineSet, threads: usize) -> Self {
        Self::with_pool(data, affine, std::sync::Arc::new(ThreadPool::new(threads)))
    }

    /// Like [`MecEngine::new`] but sharing an existing pool — short-lived
    /// engines (e.g. one per streaming-window snapshot) reuse one set of
    /// worker lanes instead of spawning their own.
    ///
    /// # Panics
    /// Panics if `affine` was produced from a differently-shaped matrix.
    pub fn with_pool(
        data: &DataMatrix,
        affine: &'a AffineSet,
        pool: std::sync::Arc<ThreadPool>,
    ) -> Self {
        Self::from_source_with_pool(data, affine, pool)
            .expect("affine set does not match the data matrix")
    }

    /// Build the engine by streaming the pre-processing pass through any
    /// [`SeriesSource`] — an on-disk store or bounded cache works as
    /// well as a resident matrix, and the result is bit-for-bit
    /// identical. Raw series are touched only here: one fetch per pivot
    /// common column (pivot statistics) and one per series (separable
    /// normalizers), in parallel with per-lane buffers.
    ///
    /// # Errors
    /// [`CoreError::ShapeMismatch`] if `affine` was not computed over a
    /// source of this shape; [`CoreError::Source`] on fetch failures.
    pub fn from_source<S: SeriesSource + ?Sized>(
        source: &S,
        affine: &'a AffineSet,
    ) -> Result<Self, CoreError> {
        Self::from_source_with_pool(source, affine, std::sync::Arc::new(ThreadPool::new(0)))
    }

    /// [`MecEngine::from_source`] with a shared worker pool.
    ///
    /// # Errors
    /// As for [`MecEngine::from_source`].
    pub fn from_source_with_pool<S: SeriesSource + ?Sized>(
        source: &S,
        affine: &'a AffineSet,
        pool: std::sync::Arc<ThreadPool>,
    ) -> Result<Self, CoreError> {
        let n = source.series_count();
        if n != affine.series_count() || source.samples() != affine.samples() {
            return Err(CoreError::ShapeMismatch {
                data: (n, source.samples()),
                model: (affine.series_count(), affine.samples()),
            });
        }
        let clusters = affine.clusters();
        // Both construction passes know their column sequence up front
        // (pivot commons in pivot order, then every column); each lane
        // announces a sliding window ahead of its position.
        let commons: Vec<u32> = affine.pivots().iter().map(|p| p.common as u32).collect();
        let stats: Vec<Result<PivotStats, CoreError>> =
            pool.parallel_map(affine.pivots().len(), |q| {
                with_column_buffers(|buf, _| {
                    let p = affine.pivots()[q];
                    prefetch_window(source, &commons, q);
                    let common = source.read_into(p.common, buf)?;
                    Ok(PivotStats::compute(common, clusters.center(p.cluster)))
                })
            });
        let mut pivot_stats = FxHashMap::default();
        pivot_stats.reserve(affine.pivots().len());
        for (&p, s) in affine.pivots().iter().zip(stats) {
            pivot_stats.insert(p, s?);
        }
        // Separable normalizers: both marginal moments from one fetch
        // per column.
        let scan = scan_sequence(n);
        let marginals: Vec<Result<(f64, f64), CoreError>> = pool.parallel_map(n, |v| {
            with_column_buffers(|buf, _| {
                prefetch_window(source, &scan, v);
                let s = source.read_into(v, buf)?;
                Ok((vector::variance(s), vector::dot(s, s)))
            })
        });
        let mut variances = Vec::with_capacity(n);
        let mut self_dots = Vec::with_capacity(n);
        for r in marginals {
            let (var, sd) = r?;
            variances.push(var);
            self_dots.push(sd);
        }
        Ok(MecEngine {
            series_count: n,
            affine,
            pivot_stats,
            variances,
            self_dots,
            center_locations: Mutex::new(FxHashMap::default()),
            batches: OnceLock::new(),
            pool,
        })
    }

    /// Assemble an engine directly from precomputed parts — the sharded
    /// model path, where pivot statistics are computed per shard and the
    /// separable normalizers once globally. `pivot_stats` must cover
    /// every pivot of `affine`; `variances`/`self_dots` are **full-length**
    /// per-series vectors (a shard's pairs reference arbitrary series in
    /// their normalizers). Queries answer bit-identically to an engine
    /// built by [`MecEngine::from_source`] over the same reference data.
    ///
    /// # Errors
    /// [`CoreError::ShapeMismatch`] when a marginal vector's length
    /// differs from the affine set's series count;
    /// [`CoreError::InvalidParameter`] when a pivot has no statistics.
    pub fn from_parts(
        affine: &'a AffineSet,
        pivot_stats: FxHashMap<PivotPair, PivotStats>,
        variances: Vec<f64>,
        self_dots: Vec<f64>,
        pool: std::sync::Arc<ThreadPool>,
    ) -> Result<Self, CoreError> {
        let n = affine.series_count();
        if variances.len() != n || self_dots.len() != n {
            return Err(CoreError::ShapeMismatch {
                data: (variances.len(), self_dots.len()),
                model: (n, n),
            });
        }
        if let Some(p) = affine
            .pivots()
            .iter()
            .find(|p| !pivot_stats.contains_key(p))
        {
            return Err(CoreError::InvalidParameter(format!(
                "pivot statistics missing for pivot (common {}, cluster {})",
                p.common, p.cluster
            )));
        }
        Ok(MecEngine {
            series_count: n,
            affine,
            pivot_stats,
            variances,
            self_dots,
            center_locations: Mutex::new(FxHashMap::default()),
            batches: OnceLock::new(),
            pool,
        })
    }

    /// The per-pivot β-batches, built on first use: the β-vectors of each
    /// pivot's pairs stacked into one `g×3` matrix (pivot order follows
    /// the affine set, so the batches are deterministic).
    fn batches(&self) -> &[PivotBatch] {
        self.batches.get_or_init(|| {
            let affine = self.affine;
            let n = self.series_count;
            let mut pivot_ids: FxHashMap<PivotPair, u32> = FxHashMap::default();
            pivot_ids.reserve(affine.pivots().len());
            for (i, &p) in affine.pivots().iter().enumerate() {
                pivot_ids.insert(p, i as u32);
            }
            let mut raw_batches: Vec<RawBatch> = (0..affine.pivots().len())
                .map(|_| Default::default())
                .collect();
            for rel in affine.relationships() {
                let id = pivot_ids[&rel.pivot] as usize;
                let (betas, members) = &mut raw_batches[id];
                betas.push(rel.beta());
                members.push((
                    rel.pair.u as u32,
                    rel.pair.v as u32,
                    pair_rank(n, rel.pair.u, rel.pair.v) as u32,
                ));
            }
            affine
                .pivots()
                .iter()
                .zip(raw_batches)
                .map(|(&pivot, (betas, members))| {
                    let cols: Vec<Vec<f64>> = (0..3)
                        .map(|c| betas.iter().map(|b| b[c]).collect())
                        .collect();
                    PivotBatch {
                        pivot,
                        betas: Matrix::from_columns(&cols),
                        members,
                    }
                })
                .collect()
        })
    }

    /// The underlying affine set.
    pub fn affine(&self) -> &AffineSet {
        self.affine
    }

    /// Exact per-series variance (the correlation normalizer component).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn variance(&self, v: SeriesId) -> f64 {
        self.variances[v]
    }

    /// The correlation normalizer `U_e = √(Σ(s_u)·Σ(s_v))` of a pair.
    pub fn normalizer(&self, pair: SequencePair) -> f64 {
        (self.variances[pair.u] * self.variances[pair.v]).sqrt()
    }

    /// Exact self dot product `Π(s_v, s_v)` (the cosine/Dice normalizer
    /// component).
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    pub fn self_dot(&self, v: SeriesId) -> f64 {
        self.self_dots[v]
    }

    /// The separable normalizer `U_e` of a derived measure (paper Sec.
    /// 2.3 / 5.1): correlation `√(Σ·Σ)`, cosine `√(Π·Π)`, Dice
    /// `(Π+Π)/2`. Returns `0.0` for non-derived measures.
    pub fn derived_normalizer(&self, measure: PairwiseMeasure, pair: SequencePair) -> f64 {
        match measure {
            PairwiseMeasure::Correlation => self.normalizer(pair),
            PairwiseMeasure::Cosine => (self.self_dots[pair.u] * self.self_dots[pair.v]).sqrt(),
            PairwiseMeasure::Dice => 0.5 * (self.self_dots[pair.u] + self.self_dots[pair.v]),
            _ => 0.0,
        }
    }

    fn center_location(&self, measure: LocationMeasure, cluster: usize) -> f64 {
        let key = (measure_tag(measure), cluster);
        let mut cache = self.center_locations.lock();
        if let Some(&v) = cache.get(&key) {
            return v;
        }
        let v = measures::location(measure, self.affine.clusters().center(cluster));
        cache.insert(key, v);
        v
    }

    /// A location measure for one series, via its per-series relationship
    /// (`L(s_v) ≈ c·L(r_ω(v)) + d`, Eq. 5 in one dimension).
    ///
    /// # Errors
    /// [`CoreError::UnknownSeries`] for out-of-range identifiers.
    pub fn location_value(&self, measure: LocationMeasure, v: SeriesId) -> Result<f64, CoreError> {
        if v >= self.series_count {
            return Err(CoreError::UnknownSeries {
                id: v,
                series: self.series_count,
            });
        }
        let sr = self.affine.series_relationship(v);
        Ok(sr.propagate(self.center_location(measure, sr.cluster)))
    }

    /// MEC query for a location measure over a set of identifiers
    /// (paper Query 1, L-measure case): returns one value per id.
    ///
    /// Center values are resolved once per cluster, so the per-id cost is
    /// two flops — the paper's point about L-measures needing only O(n)
    /// relationships.
    ///
    /// # Errors
    /// [`CoreError::UnknownSeries`] for out-of-range identifiers.
    pub fn location(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
    ) -> Result<Vec<f64>, CoreError> {
        let n = self.series_count;
        if let Some(&bad) = ids.iter().find(|&&v| v >= n) {
            return Err(CoreError::UnknownSeries { id: bad, series: n });
        }
        let centers = self.center_locations_for(measure);
        Ok(ids
            .iter()
            .map(|&v| {
                let sr = self.affine.series_relationship(v);
                sr.propagate(centers[sr.cluster])
            })
            .collect())
    }

    /// A location measure for every series.
    pub fn location_all(&self, measure: LocationMeasure) -> Vec<f64> {
        let centers = self.center_locations_for(measure);
        self.affine
            .series_relationships()
            .iter()
            .map(|sr| sr.propagate(centers[sr.cluster]))
            .collect()
    }

    /// Location values of every cluster centre for a measure, resolved
    /// through the cache with a single lock acquisition.
    fn center_locations_for(&self, measure: LocationMeasure) -> Vec<f64> {
        let k = self.affine.clusters().k();
        let tag = measure_tag(measure);
        let mut cache = self.center_locations.lock();
        (0..k)
            .map(|l| {
                *cache.entry((tag, l)).or_insert_with(|| {
                    measures::location(measure, self.affine.clusters().center(l))
                })
            })
            .collect()
    }

    /// A pairwise measure for one sequence pair, via its affine
    /// relationship (Eqs. 6–8).
    ///
    /// # Errors
    /// [`CoreError::MissingRelationship`] if the pair was never assigned
    /// (cannot happen for sets produced by a full SYMEX run).
    pub fn pair_value(
        &self,
        measure: PairwiseMeasure,
        pair: SequencePair,
    ) -> Result<f64, CoreError> {
        let rel = self
            .affine
            .relationship(pair)
            .ok_or(CoreError::MissingRelationship {
                u: pair.u,
                v: pair.v,
            })?;
        let stats = &self.pivot_stats[&rel.pivot];
        let beta = rel.beta();
        Ok(match measure {
            PairwiseMeasure::Covariance => stats.propagate_covariance(&beta),
            PairwiseMeasure::DotProduct => stats.propagate_dot(&beta),
            PairwiseMeasure::Correlation => {
                let cov = stats.propagate_covariance(&beta);
                let norm = self.normalizer(pair);
                if norm > 0.0 {
                    cov / norm
                } else {
                    0.0
                }
            }
            PairwiseMeasure::Cosine | PairwiseMeasure::Dice => {
                let dot = stats.propagate_dot(&beta);
                let norm = self.derived_normalizer(measure, pair);
                if norm > 0.0 {
                    dot / norm
                } else {
                    0.0
                }
            }
        })
    }

    /// Apply a measure's separable normalizer to a propagated raw value
    /// (covariance or dot product, matching [`PivotStats::alpha`]).
    #[inline]
    fn finalize(&self, measure: PairwiseMeasure, u: usize, v: usize, raw: f64) -> f64 {
        match measure {
            PairwiseMeasure::Covariance | PairwiseMeasure::DotProduct => raw,
            PairwiseMeasure::Correlation => {
                let norm = (self.variances[u] * self.variances[v]).sqrt();
                if norm > 0.0 {
                    raw / norm
                } else {
                    0.0
                }
            }
            PairwiseMeasure::Cosine => {
                let norm = (self.self_dots[u] * self.self_dots[v]).sqrt();
                if norm > 0.0 {
                    raw / norm
                } else {
                    0.0
                }
            }
            PairwiseMeasure::Dice => {
                let norm = 0.5 * (self.self_dots[u] + self.self_dots[v]);
                if norm > 0.0 {
                    raw / norm
                } else {
                    0.0
                }
            }
        }
    }

    /// MEC query for a pairwise measure over a set of identifiers
    /// (paper Query 1, T/D-measure case): returns the `|ψ|×|ψ|` matrix.
    ///
    /// Diagonal entries are the exact self-values (variance / self dot
    /// product / 1). Large requests are answered through the per-pivot
    /// β-batches (one GEMV per touched pivot); small ones through the
    /// scalar [`MecEngine::pair_value`] path — the two are numerically
    /// identical.
    ///
    /// # Errors
    /// [`CoreError::UnknownSeries`] for out-of-range identifiers,
    /// [`CoreError::DuplicateSeries`] if an identifier repeats,
    /// [`CoreError::MissingRelationship`] if the affine set does not
    /// cover a requested pair (a partial set).
    pub fn pairwise(
        &self,
        measure: PairwiseMeasure,
        ids: &[SeriesId],
    ) -> Result<Matrix, CoreError> {
        let n = self.series_count;
        if let Some(&bad) = ids.iter().find(|&&v| v >= n) {
            return Err(CoreError::UnknownSeries { id: bad, series: n });
        }
        require_distinct(ids)?;
        let q = ids.len();
        let mut out = Matrix::zeros(q, q);
        for i in 0..q {
            out.set(
                i,
                i,
                match measure {
                    PairwiseMeasure::Covariance => self.variances[ids[i]],
                    PairwiseMeasure::DotProduct => self.self_dots[ids[i]],
                    PairwiseMeasure::Correlation
                    | PairwiseMeasure::Cosine
                    | PairwiseMeasure::Dice => 1.0,
                },
            );
        }
        if q < 2 {
            return Ok(out);
        }
        if q * (q - 1) / 2 < BATCH_THRESHOLD {
            for i in 0..q {
                for j in i + 1..q {
                    let v = self.pair_value(measure, SequencePair::new(ids[i], ids[j]))?;
                    out.set(i, j, v);
                    out.set(j, i, v);
                }
            }
            return Ok(out);
        }
        // Group the requested pairs by pivot, then one GEMV per group.
        let mut groups: FxHashMap<PivotPair, SubsetGroup> = FxHashMap::default();
        for i in 0..q {
            for j in i + 1..q {
                let pair = SequencePair::new(ids[i], ids[j]);
                let rel = self
                    .affine
                    .relationship(pair)
                    .ok_or(CoreError::MissingRelationship {
                        u: pair.u,
                        v: pair.v,
                    })?;
                let (betas, cells) = groups.entry(rel.pivot).or_default();
                betas.push(rel.beta());
                cells.push((i as u32, j as u32));
            }
        }
        let groups: Vec<(PivotPair, SubsetGroup)> = {
            let mut v: Vec<_> = groups.into_iter().collect();
            // Deterministic order (hash maps iterate arbitrarily).
            v.sort_by_key(|&(p, _)| p);
            v
        };
        let values: Vec<Vec<f64>> = self.pool.parallel_map(groups.len(), |g| {
            let (pivot, (betas, cells)) = &groups[g];
            let stats = &self.pivot_stats[pivot];
            let alpha = stats.alpha(measure);
            cells
                .iter()
                .zip(betas)
                .map(|(&(i, j), b)| {
                    // Same accumulation order as matvec_into: k ascending,
                    // zero coefficients skipped — bit-identical to the
                    // GEMV and to pair_value.
                    let mut raw = 0.0;
                    for (k, &a) in alpha.iter().enumerate() {
                        if !vector::exactly_zero(a) {
                            raw += a * b[k];
                        }
                    }
                    self.finalize(measure, ids[i as usize], ids[j as usize], raw)
                })
                .collect()
        });
        for ((_, (_, cells)), vals) in groups.iter().zip(values) {
            for (&(i, j), v) in cells.iter().zip(vals) {
                out.set(i as usize, j as usize, v);
                out.set(j as usize, i as usize, v);
            }
        }
        Ok(out)
    }

    /// A pairwise measure for every sequence pair, in the lexicographic
    /// order of [`DataMatrix::sequence_pairs`] — the `W_A` counterpart of
    /// [`measures::pairwise_all`], used for the tradeoff experiments
    /// (Figs. 9–11).
    ///
    /// The sweep is one GEMV-shaped pass per pivot over the cached
    /// β-batches, parallelized across pivots; every pair
    /// writes its own lexicographic slot, so the output is deterministic
    /// and identical to a scalar [`MecEngine::pair_value`] loop.
    ///
    /// # Errors
    /// [`CoreError::MissingRelationship`] if the affine set does not
    /// cover every pair (a partial set).
    pub fn pairwise_all(&self, measure: PairwiseMeasure) -> Result<Vec<f64>, CoreError> {
        let n = self.series_count;
        let total = n * (n - 1) / 2;
        if self.affine.len() != total {
            for u in 0..n {
                for v in u + 1..n {
                    if self.affine.relationship(SequencePair::new(u, v)).is_none() {
                        return Err(CoreError::MissingRelationship { u, v });
                    }
                }
            }
        }
        let mut out = vec![0.0; total];
        {
            let batches = self.batches();
            let writer = DisjointWriter::new(&mut out);
            self.pool.parallel_for(batches.len(), |b| {
                let batch = &batches[b];
                let stats = &self.pivot_stats[&batch.pivot];
                let alpha = stats.alpha(measure);
                let mut raw = vec![0.0; batch.members.len()];
                batch
                    .betas
                    .matvec_into(&alpha, &mut raw)
                    .expect("batch shapes agree");
                for (&(u, v, idx), &r) in batch.members.iter().zip(&raw) {
                    let value = self.finalize(measure, u as usize, v as usize, r);
                    // SAFETY: each pair has exactly one lexicographic
                    // index and appears in exactly one pivot batch.
                    unsafe { writer.write(idx as usize, value) };
                }
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::afclst::AfclstParams;
    use crate::rmse::percent_rmse;
    use crate::symex::{Symex, SymexParams, SymexVariant};
    use affinity_data::generator::{sensor_dataset, SensorConfig};

    fn engine_fixture(n: usize, m: usize, k: usize) -> (DataMatrix, AffineSet) {
        let data = sensor_dataset(&SensorConfig::reduced(n, m));
        let affine = Symex::new(SymexParams {
            afclst: AfclstParams {
                k,
                gamma_max: 10,
                delta_min: 0,
                seed: 42,
            },
            variant: SymexVariant::Plus,
            threads: 0,
        })
        .run(&data)
        .unwrap();
        (data, affine)
    }

    #[test]
    fn covariance_is_essentially_exact() {
        // Stronger than the paper needs: with the common series AND the
        // intercept column in the least-squares span, the residual is
        // orthogonal to both, so Σ₁₂ propagation is exact to machine
        // precision for ANY data — matching the ~1e-12 RMSE the paper
        // reports in Figs. 9d/10d.
        let (data, affine) = engine_fixture(20, 96, 4);
        let engine = MecEngine::new(&data, &affine);
        let approx = engine.pairwise_all(PairwiseMeasure::Covariance).unwrap();
        let exact = measures::pairwise_all(PairwiseMeasure::Covariance, &data);
        let err = percent_rmse(&exact, &approx);
        assert!(err < 1e-6, "%RMSE {err}");
    }

    #[test]
    fn dot_product_is_essentially_exact() {
        // Lemma 1: dot products with the common series survive any LS fit.
        let (data, affine) = engine_fixture(16, 80, 4);
        let engine = MecEngine::new(&data, &affine);
        let approx = engine.pairwise_all(PairwiseMeasure::DotProduct).unwrap();
        let exact = measures::pairwise_all(PairwiseMeasure::DotProduct, &data);
        let err = percent_rmse(&exact, &approx);
        assert!(err < 1e-6, "%RMSE {err}");
    }

    #[test]
    fn mean_is_essentially_exact() {
        // LS with intercept preserves column means exactly.
        let (data, affine) = engine_fixture(16, 64, 4);
        let engine = MecEngine::new(&data, &affine);
        let approx = engine.location_all(LocationMeasure::Mean);
        let exact = measures::location_all(LocationMeasure::Mean, &data);
        let err = percent_rmse(&exact, &approx);
        assert!(err < 1e-8, "%RMSE {err}");
    }

    #[test]
    fn median_and_mode_are_approximate_but_close() {
        let (data, affine) = engine_fixture(24, 96, 6);
        let engine = MecEngine::new(&data, &affine);
        for (measure, tol) in [
            (LocationMeasure::Median, 8.0),
            (LocationMeasure::Mode, 15.0),
        ] {
            let approx = engine.location_all(measure);
            let exact = measures::location_all(measure, &data);
            let err = percent_rmse(&exact, &approx);
            assert!(err < tol, "{} %RMSE {err}", measure.name());
        }
    }

    #[test]
    fn correlation_is_essentially_exact() {
        // Exact covariance propagation × exact separable normalizers =>
        // exact correlation, cf. the exactness note on
        // covariance_is_essentially_exact.
        let (data, affine) = engine_fixture(20, 96, 4);
        let engine = MecEngine::new(&data, &affine);
        let approx = engine.pairwise_all(PairwiseMeasure::Correlation).unwrap();
        let exact = measures::pairwise_all(PairwiseMeasure::Correlation, &data);
        let err = percent_rmse(&exact, &approx);
        assert!(err < 1e-6, "%RMSE {err}");
        for (e, a) in exact.iter().zip(approx.iter()) {
            assert!((e - a).abs() < 1e-8, "exact {e} vs approx {a}");
        }
    }

    #[test]
    fn cosine_and_dice_are_essentially_exact() {
        // Both are the (exact) propagated dot product divided by exact
        // separable normalizers.
        let (data, affine) = engine_fixture(16, 80, 4);
        let engine = MecEngine::new(&data, &affine);
        for measure in [PairwiseMeasure::Cosine, PairwiseMeasure::Dice] {
            let approx = engine.pairwise_all(measure).unwrap();
            let exact = measures::pairwise_all(measure, &data);
            let err = percent_rmse(&exact, &approx);
            assert!(err < 1e-5, "{} %RMSE {err}", measure.name());
        }
        // Self values are 1 by definition.
        let m = engine.pairwise(PairwiseMeasure::Cosine, &[0, 1]).unwrap();
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn derived_normalizers_match_definitions() {
        let (data, affine) = engine_fixture(8, 40, 2);
        let engine = MecEngine::new(&data, &affine);
        let pair = SequencePair::new(2, 5);
        let sd2 = vector::dot(data.series(2), data.series(2));
        let sd5 = vector::dot(data.series(5), data.series(5));
        assert!((engine.self_dot(2) - sd2).abs() < 1e-9);
        assert!(
            (engine.derived_normalizer(PairwiseMeasure::Cosine, pair) - (sd2 * sd5).sqrt()).abs()
                < 1e-6
        );
        assert!(
            (engine.derived_normalizer(PairwiseMeasure::Dice, pair) - 0.5 * (sd2 + sd5)).abs()
                < 1e-6
        );
        assert_eq!(
            engine.derived_normalizer(PairwiseMeasure::Covariance, pair),
            0.0
        );
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_correct_diagonal() {
        let (data, affine) = engine_fixture(12, 48, 3);
        let engine = MecEngine::new(&data, &affine);
        let ids = vec![1, 3, 5, 7];
        let cov = engine.pairwise(PairwiseMeasure::Covariance, &ids).unwrap();
        assert_eq!(cov.rows(), 4);
        for i in 0..4 {
            assert!((cov.get(i, i) - engine.variance(ids[i])).abs() < 1e-12);
            for j in 0..4 {
                assert_eq!(cov.get(i, j), cov.get(j, i));
            }
        }
        let rho = engine.pairwise(PairwiseMeasure::Correlation, &ids).unwrap();
        for i in 0..4 {
            assert_eq!(rho.get(i, i), 1.0);
        }
    }

    #[test]
    fn unknown_series_is_an_error() {
        let (data, affine) = engine_fixture(8, 32, 2);
        let engine = MecEngine::new(&data, &affine);
        assert!(matches!(
            engine.location_value(LocationMeasure::Mean, 99),
            Err(CoreError::UnknownSeries { id: 99, .. })
        ));
        assert!(engine.location(LocationMeasure::Mean, &[0, 99]).is_err());
    }

    #[test]
    fn center_location_cache_is_reused() {
        let (data, affine) = engine_fixture(10, 32, 2);
        let engine = MecEngine::new(&data, &affine);
        // Two calls for the same measure hit the cache; both must agree.
        let a = engine.location_all(LocationMeasure::Median);
        let b = engine.location_all(LocationMeasure::Median);
        assert_eq!(a, b);
        assert!(engine.center_locations.lock().len() <= 2 * 3);
    }

    #[test]
    fn normalizer_matches_definition() {
        let (data, affine) = engine_fixture(6, 40, 2);
        let engine = MecEngine::new(&data, &affine);
        let pair = SequencePair::new(1, 4);
        let expected = (vector::variance(data.series(1)) * vector::variance(data.series(4))).sqrt();
        assert!((engine.normalizer(pair) - expected).abs() < 1e-12);
    }
}
