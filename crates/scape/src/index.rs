//! SCAPE index construction (paper Sec. 5.1) and delta maintenance.

use crate::delta::ScapeDelta;
use crate::error::ScapeError;
use affinity_core::affine::{PivotPair, PivotStats};
use affinity_core::hash::FxHashMap;
use affinity_core::measures::{self, LocationMeasure, Measure, PairwiseMeasure};
use affinity_core::symex::AffineSet;
use affinity_data::source::{prefetch_window, scan_sequence, with_column_buffers};
use affinity_data::{DataMatrix, SequencePair, SeriesId, SeriesSource};
use affinity_index::BPlusTree;
use affinity_linalg::vector;
use affinity_par::ThreadPool;

/// Number of derived-measure normalizer slots per sequence node: the
/// covariance tree carries the correlation normalizer in slot 0; the
/// dot-product tree carries cosine (slot 0) and Dice (slot 1).
pub(crate) const NORM_SLOTS: usize = 2;

/// Payload of a sequence node: the pair it stands for and — for
/// D-measure processing — the separable normalizers `U_e` of the derived
/// measures that share this tree's α family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SeqNode {
    pub pair: SequencePair,
    pub normalizers: [f64; NORM_SLOTS],
}

/// A pivot node for a pairwise measure: the measure α-vector and its
/// norm, the sorted container of its sequence nodes, and the per-slot
/// normalizer bounds used for D-measure pruning (paper Sec. 5.3).
///
/// `alpha` is retained (not just its norm) so delta maintenance can
/// recompute a stored node's key `ξ = (α·β)/‖α‖` bit-identically from
/// the old `β` when relocating it.
#[derive(Debug, Clone)]
pub(crate) struct PairPivotNode {
    pub alpha: [f64; 3],
    pub alpha_norm: f64,
    pub tree: BPlusTree<SeqNode>,
    /// `(U_q^min, U_q^max)` per normalizer slot.
    pub u_bounds: [(f64, f64); NORM_SLOTS],
}

/// A pivot node for a location measure: one per cluster, holding the
/// member series keyed by their scalar projection. `center_loc` (the
/// location value of the cluster centre) is retained for delta
/// maintenance, mirroring `PairPivotNode::alpha`.
#[derive(Debug, Clone)]
pub(crate) struct LocPivotNode {
    pub center_loc: f64,
    pub alpha_norm: f64,
    pub tree: BPlusTree<SeriesId>,
}

/// Build/size statistics of a SCAPE index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Pivot nodes across all indexed pairwise measures.
    pub pair_pivot_nodes: usize,
    /// Sequence nodes across all indexed pairwise measures.
    pub pair_sequence_nodes: usize,
    /// Pivot (cluster) nodes across all indexed location measures.
    pub location_pivot_nodes: usize,
    /// Series nodes across all indexed location measures.
    pub location_series_nodes: usize,
}

/// The SCAPE index (paper Sec. 5). Build once over an [`AffineSet`], then
/// run MET/MER queries via the methods in the `query` module.
///
/// Cloning is a deep copy of every pivot tree; the snapshot open path
/// (`Session::open_snapshot`) uses it to hand a decoded index to a
/// query session without rebuilding.
#[derive(Debug, Clone)]
pub struct ScapeIndex {
    /// Covariance pivot nodes, in pivot order; also serves correlation.
    pub(crate) cov: Option<Vec<PairPivotNode>>,
    /// Dot-product pivot nodes.
    pub(crate) dot: Option<Vec<PairPivotNode>>,
    /// Whether correlation queries are allowed (requires covariance
    /// nodes + normalizers, which are always stored when cov is built).
    pub(crate) correlation: bool,
    /// Location pivot nodes per measure tag, one node per cluster.
    pub(crate) loc: [Option<Vec<LocPivotNode>>; 3],
    /// Pivot pair → node index, shared by every pairwise family; lets
    /// [`ScapeIndex::apply_delta`] resolve a change in `O(1)`.
    pub(crate) pivot_ids: FxHashMap<PivotPair, usize>,
    pub(crate) stats: IndexStats,
}

#[inline]
pub(crate) fn loc_tag(m: LocationMeasure) -> usize {
    match m {
        LocationMeasure::Mean => 0,
        LocationMeasure::Median => 1,
        LocationMeasure::Mode => 2,
    }
}

#[inline]
fn dot3(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a[0] * b[0] + a[1] * b[1] + a[2] * b[2]
}

#[inline]
fn norm3(a: &[f64; 3]) -> f64 {
    dot3(a, a).sqrt()
}

/// The scalar projection `ξ = (α·β)/‖α‖`, with two normalizations shared
/// by construction *and* delta maintenance (so recomputed keys stay
/// bit-identical): zero-α pivots degenerate to ξ = 0 (the reconstructed
/// value is 0 too, so ordering stays consistent), and `-0.0` collapses
/// to `+0.0` — `total_cmp` (the bulk sort) orders `-0.0 < +0.0` while
/// tree inserts compare them equal, and canonicalizing keeps the two
/// build paths node-for-node identical.
#[inline]
fn project(alpha: &[f64; 3], alpha_norm: f64, beta: &[f64; 3]) -> f64 {
    if alpha_norm > 0.0 {
        let xi = dot3(alpha, beta) / alpha_norm;
        if vector::exactly_zero(xi) {
            0.0
        } else {
            xi
        }
    } else {
        0.0
    }
}

/// Canonical location projection (same signed-zero normalization as
/// [`project`]).
#[inline]
fn project_loc(c: f64, d: f64, center_loc: f64, alpha_norm: f64) -> f64 {
    let xi = (c * center_loc + d) / alpha_norm;
    if vector::exactly_zero(xi) {
        0.0
    } else {
        xi
    }
}

/// Which tree families a measure list requests:
/// `(covariance, dot, correlation, location-by-tag)`. Indexing
/// correlation implies building the covariance family (shared α).
fn measure_wants(measures_list: &[Measure]) -> (bool, bool, bool, [bool; 3]) {
    let want_corr = measures_list
        .iter()
        .any(|m| matches!(m, Measure::Pairwise(PairwiseMeasure::Correlation)));
    let want_cov = want_corr
        || measures_list
            .iter()
            .any(|m| matches!(m, Measure::Pairwise(PairwiseMeasure::Covariance)));
    let want_dot = measures_list.iter().any(|m| {
        matches!(
            m,
            Measure::Pairwise(PairwiseMeasure::DotProduct)
                | Measure::Pairwise(PairwiseMeasure::Cosine)
                | Measure::Pairwise(PairwiseMeasure::Dice)
        )
    });
    let want_loc: [bool; 3] = {
        let mut w = [false; 3];
        for m in measures_list {
            if let Measure::Location(l) = m {
                w[loc_tag(*l)] = true;
            }
        }
        w
    };
    (want_cov, want_dot, want_corr, want_loc)
}

impl ScapeIndex {
    /// Build the index over the given measures.
    ///
    /// Per indexed pairwise measure, the `g` affine relationships are
    /// gathered into per-pivot `(ξ, node)` arrays, sorted, and
    /// bulk-loaded bottom-up — `O(g log g)` with a linear-construction
    /// tree pass, the scaling of paper Fig. 14. Location measures cost
    /// `O(n)` per measure. Sorting and tree construction run serially
    /// here; [`ScapeIndex::build_with_pool`] shards them across pivots.
    ///
    /// Indexing [`PairwiseMeasure::Correlation`] implies building the
    /// covariance nodes (correlation shares the covariance `α`, Table 2).
    ///
    /// # Errors
    /// [`ScapeError::ShapeMismatch`] if `affine` was not computed over
    /// `data` (series count / samples differ).
    pub fn build(
        data: &DataMatrix,
        affine: &AffineSet,
        measures_list: &[Measure],
    ) -> Result<Self, ScapeError> {
        Self::build_impl(data, affine, measures_list, &ThreadPool::new(1), true)
    }

    /// [`ScapeIndex::build`] with the per-pivot sort + bulk-load phase
    /// sharded across the given worker pool (the streaming engine passes
    /// its long-lived pool). Output is identical for every lane count.
    ///
    /// # Errors
    /// [`ScapeError::ShapeMismatch`] as for [`ScapeIndex::build`].
    pub fn build_with_pool(
        data: &DataMatrix,
        affine: &AffineSet,
        measures_list: &[Measure],
        pool: &ThreadPool,
    ) -> Result<Self, ScapeError> {
        Self::build_impl(data, affine, measures_list, pool, true)
    }

    /// Reference construction path: per-key B-tree inserts instead of
    /// sort + bulk load. Kept for tests and the Fig. 14 bench, which
    /// assert both paths answer every query identically; prefer
    /// [`ScapeIndex::build`].
    ///
    /// # Errors
    /// [`ScapeError::ShapeMismatch`] as for [`ScapeIndex::build`].
    pub fn build_insert(
        data: &DataMatrix,
        affine: &AffineSet,
        measures_list: &[Measure],
    ) -> Result<Self, ScapeError> {
        Self::build_impl(data, affine, measures_list, &ThreadPool::new(1), false)
    }

    /// Build the index by streaming columns through any
    /// [`SeriesSource`] — an on-disk `MatrixStore` or bounded-memory
    /// `CachedStore` works as well as a resident matrix, and the result
    /// is bit-for-bit identical (pivot statistics and normalizers are
    /// the only raw-data reads; everything else comes from the affine
    /// set). Per-pivot work is sharded across `pool`'s lanes with
    /// per-lane column buffers.
    ///
    /// # Errors
    /// [`ScapeError::ShapeMismatch`] if `affine` was not computed over a
    /// source of this shape; [`ScapeError::Source`] on fetch failures.
    pub fn build_from_source<S: SeriesSource + ?Sized>(
        source: &S,
        affine: &AffineSet,
        measures_list: &[Measure],
        pool: &ThreadPool,
    ) -> Result<Self, ScapeError> {
        Self::build_impl(source, affine, measures_list, pool, true)
    }

    fn build_impl<S: SeriesSource + ?Sized>(
        source: &S,
        affine: &AffineSet,
        measures_list: &[Measure],
        pool: &ThreadPool,
        bulk: bool,
    ) -> Result<Self, ScapeError> {
        if source.series_count() != affine.series_count() || source.samples() != affine.samples() {
            return Err(ScapeError::ShapeMismatch {
                data: (source.series_count(), source.samples()),
                affine: (affine.series_count(), affine.samples()),
            });
        }
        let (want_cov, want_dot, _, _) = measure_wants(measures_list);
        let pivot_count = affine.pivots().len();
        // Pairwise-only preprocessing, skipped for location-only builds
        // (all of it is O(pivots·m) / O(n·m) / O(n²) work that only the
        // pairwise families consume). Raw columns are pulled through the
        // source with per-lane buffers — the only data access in the
        // whole build.
        let want_pair = want_cov || want_dot;
        let pivot_stats: Vec<PivotStats> = if want_pair {
            let clusters = affine.clusters();
            // Pivot commons in pivot order — known before any fetch, so
            // each lane announces a sliding window ahead of itself.
            let commons: Vec<u32> = affine.pivots().iter().map(|p| p.common as u32).collect();
            pool.parallel_map(pivot_count, |q| {
                with_column_buffers(|buf, _| {
                    let p = affine.pivots()[q];
                    prefetch_window(source, &commons, q);
                    let common = source.read_into(p.common, buf)?;
                    Ok(PivotStats::compute(common, clusters.center(p.cluster)))
                })
            })
            .into_iter()
            .collect::<Result<_, ScapeError>>()?
        } else {
            Vec::new()
        };
        // Normalizer components (exact per-series variances and self
        // dot products — the "separable normalizers" of Sec. 2.3), both
        // marginal moments from one fetch per column.
        let (variances, self_dots): (Vec<f64>, Vec<f64>) = if want_cov || want_dot {
            let n = source.series_count();
            let scan = scan_sequence(n);
            let marginals: Vec<Result<(f64, f64), ScapeError>> = pool.parallel_map(n, |v| {
                with_column_buffers(|buf, _| {
                    prefetch_window(source, &scan, v);
                    let s = source.read_into(v, buf)?;
                    Ok((
                        if want_cov { vector::variance(s) } else { 0.0 },
                        if want_dot { vector::dot(s, s) } else { 0.0 },
                    ))
                })
            });
            let mut variances = Vec::new();
            let mut self_dots = Vec::new();
            for r in marginals {
                let (var, sd) = r?;
                if want_cov {
                    variances.push(var);
                }
                if want_dot {
                    self_dots.push(sd);
                }
            }
            (variances, self_dots)
        } else {
            (Vec::new(), Vec::new())
        };
        Ok(Self::assemble(
            affine,
            &pivot_stats,
            &variances,
            &self_dots,
            measures_list,
            None,
            pool,
            bulk,
        ))
    }

    /// Assemble an index directly from precomputed pivot statistics and
    /// marginal moments, without touching raw series data. This is the
    /// shard build path: a caller that has already computed per-pivot
    /// [`PivotStats`] (aligned with `affine.pivots()`) and the
    /// per-series variance / self-dot tables reuses them here, and the
    /// resulting trees are node-for-node identical to a
    /// [`ScapeIndex::build_from_source`] over the same model.
    ///
    /// `loc_series`, when given, masks which series are admitted to the
    /// location trees (length `affine.series_count()`); pair trees are
    /// always built from every relationship in `affine`. A sharded
    /// deployment uses this so each shard's location trees hold exactly
    /// its owned series while its pair trees hold its pivot groups.
    ///
    /// # Panics
    /// If a pairwise measure is requested and `pivot_stats` is not
    /// aligned with `affine.pivots()`, if a wanted normalizer table
    /// (`variances` for the covariance family, `self_dots` for the dot
    /// family) does not cover `affine.series_count()` series, or if
    /// `loc_series` has the wrong length. These are programmer errors —
    /// this constructor never sees untrusted bytes (decoded indexes go
    /// through `from_bytes`).
    #[allow(clippy::too_many_arguments)]
    pub fn build_from_stats(
        affine: &AffineSet,
        pivot_stats: &[PivotStats],
        variances: &[f64],
        self_dots: &[f64],
        measures_list: &[Measure],
        loc_series: Option<&[bool]>,
        pool: &ThreadPool,
    ) -> Self {
        let (want_cov, want_dot, _, _) = measure_wants(measures_list);
        let n = affine.series_count();
        if want_cov || want_dot {
            assert_eq!(
                pivot_stats.len(),
                affine.pivots().len(),
                "build_from_stats: pivot_stats must align with affine.pivots()"
            );
        }
        if want_cov {
            assert_eq!(
                variances.len(),
                n,
                "build_from_stats: variances must cover every series"
            );
        }
        if want_dot {
            assert_eq!(
                self_dots.len(),
                n,
                "build_from_stats: self_dots must cover every series"
            );
        }
        if let Some(mask) = loc_series {
            assert_eq!(
                mask.len(),
                n,
                "build_from_stats: loc_series mask must cover every series"
            );
        }
        Self::assemble(
            affine,
            pivot_stats,
            variances,
            self_dots,
            measures_list,
            loc_series,
            pool,
            true,
        )
    }

    /// Shared tree-assembly stage: everything downstream of the raw-data
    /// reads. Both the source-streaming build and
    /// [`ScapeIndex::build_from_stats`] funnel through here, so given the
    /// same statistics their outputs are node-for-node identical.
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        affine: &AffineSet,
        pivot_stats: &[PivotStats],
        variances: &[f64],
        self_dots: &[f64],
        measures_list: &[Measure],
        loc_series: Option<&[bool]>,
        pool: &ThreadPool,
        bulk: bool,
    ) -> Self {
        let (want_cov, want_dot, want_corr, want_loc) = measure_wants(measures_list);
        let want_pair = want_cov || want_dot;
        let pivot_count = affine.pivots().len();
        let mut stats = IndexStats::default();

        // --- Pairwise measures -----------------------------------------
        let mut pivot_ids: FxHashMap<PivotPair, usize> = FxHashMap::default();
        for (i, &p) in affine.pivots().iter().enumerate() {
            pivot_ids.insert(p, i);
        }
        // Bucket relationship indices by pivot once, in traversal order;
        // both pairwise families shard over these groups.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); if want_pair { pivot_count } else { 0 }];
        if want_pair {
            for (i, rel) in affine.relationships().iter().enumerate() {
                members[pivot_ids[&rel.pivot]].push(i as u32);
            }
        }

        let build_pair = |measure: PairwiseMeasure| -> Vec<PairPivotNode> {
            pool.parallel_map(pivot_count, |q| {
                let alpha = pivot_stats[q].alpha(measure);
                let alpha_norm = norm3(&alpha);
                let mut u_bounds = [(f64::INFINITY, f64::NEG_INFINITY); NORM_SLOTS];
                let mut entries: Vec<(f64, SeqNode)> = Vec::with_capacity(members[q].len());
                for &i in &members[q] {
                    let rel = &affine.relationships()[i as usize];
                    let xi = project(&alpha, alpha_norm, &rel.beta());
                    let (u, v) = (rel.pair.u, rel.pair.v);
                    let normalizers = match measure {
                        // Covariance family: slot 0 = correlation
                        // normalizer.
                        PairwiseMeasure::Covariance => [(variances[u] * variances[v]).sqrt(), 0.0],
                        // Dot family: slot 0 = cosine, slot 1 = Dice.
                        _ => [
                            (self_dots[u] * self_dots[v]).sqrt(),
                            0.5 * (self_dots[u] + self_dots[v]),
                        ],
                    };
                    for (slot, &n) in normalizers.iter().enumerate() {
                        u_bounds[slot].0 = u_bounds[slot].0.min(n);
                        u_bounds[slot].1 = u_bounds[slot].1.max(n);
                    }
                    entries.push((
                        xi,
                        SeqNode {
                            pair: rel.pair,
                            normalizers,
                        },
                    ));
                }
                let tree = if bulk {
                    // Stable sort keeps traversal order among equal ξ
                    // (zero-α pivots and symmetric series produce long
                    // duplicate runs), so iteration order matches the
                    // insert path exactly.
                    entries.sort_by(|a, b| a.0.total_cmp(&b.0));
                    BPlusTree::bulk_build(entries)
                } else {
                    let mut t = BPlusTree::new();
                    for (k, v) in entries {
                        t.insert(k, v);
                    }
                    t
                };
                PairPivotNode {
                    alpha,
                    alpha_norm,
                    tree,
                    u_bounds,
                }
            })
        };

        let cov = want_cov.then(|| build_pair(PairwiseMeasure::Covariance));
        let dot = want_dot.then(|| build_pair(PairwiseMeasure::DotProduct));
        for nodes in cov.iter().chain(dot.iter()) {
            stats.pair_pivot_nodes += nodes.len();
            stats.pair_sequence_nodes += nodes.iter().map(|n| n.tree.len()).sum::<usize>();
        }

        // --- Location measures ------------------------------------------
        let clusters = affine.clusters();
        let mut loc: [Option<Vec<LocPivotNode>>; 3] = [None, None, None];
        for (tag, wanted) in want_loc.iter().enumerate() {
            if !wanted {
                continue;
            }
            let measure = match tag {
                0 => LocationMeasure::Mean,
                1 => LocationMeasure::Median,
                _ => LocationMeasure::Mode,
            };
            // Centres are independent and land in index order, so the
            // pool's lane count never changes a bit.
            let center_loc: Vec<f64> = pool.parallel_map(clusters.k(), |l| {
                measures::location(measure, clusters.center(l))
            });
            // Gather per-cluster entries in series order, then load.
            // A masked build (sharding) admits only the owned series.
            let mut cluster_entries: Vec<Vec<(f64, SeriesId)>> = vec![Vec::new(); clusters.k()];
            for sr in affine.series_relationships() {
                if loc_series.is_some_and(|m| !m[sr.series]) {
                    continue;
                }
                let lv = center_loc[sr.cluster];
                let xi = project_loc(sr.c, sr.d, lv, (lv * lv + 1.0).sqrt());
                cluster_entries[sr.cluster].push((xi, sr.series));
            }
            let nodes: Vec<LocPivotNode> = center_loc
                .iter()
                .zip(cluster_entries)
                .map(|(&lv, mut entries)| {
                    let tree = if bulk {
                        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
                        BPlusTree::bulk_build(entries)
                    } else {
                        let mut t = BPlusTree::new();
                        for (k, v) in entries {
                            t.insert(k, v);
                        }
                        t
                    };
                    LocPivotNode {
                        center_loc: lv,
                        alpha_norm: (lv * lv + 1.0).sqrt(),
                        tree,
                    }
                })
                .collect();
            stats.location_pivot_nodes += nodes.len();
            stats.location_series_nodes += nodes.iter().map(|n| n.tree.len()).sum::<usize>();
            loc[tag] = Some(nodes);
        }

        ScapeIndex {
            cov,
            dot,
            correlation: want_corr || want_cov,
            loc,
            pivot_ids,
            stats,
        }
    }

    /// Apply a batch of relationship re-fits against **retained pivots**:
    /// each change relocates one sequence (or series) node from its old
    /// scalar projection to the new one — `O(log g)` per affected tree —
    /// leaving pivot statistics, normalizers, and every untouched node
    /// exactly as built. After a successful call the index answers every
    /// query identically to a from-scratch [`ScapeIndex::build`] over the
    /// same reference data with the patched affine set.
    ///
    /// # Errors
    /// [`ScapeError::DeltaMismatch`] if a change references a pivot,
    /// cluster, or node the index does not hold (e.g. a delta produced
    /// against a different model generation). Changes are applied in
    /// order; on error the already-applied prefix remains in place, so
    /// the caller should discard the index and rebuild.
    pub fn apply_delta(&mut self, delta: &ScapeDelta) -> Result<(), ScapeError> {
        for pd in &delta.pairs {
            let q = *self
                .pivot_ids
                .get(&pd.pivot)
                .ok_or(ScapeError::DeltaMismatch {
                    detail: "unknown pivot pair",
                })?;
            for nodes in self.cov.iter_mut().chain(self.dot.iter_mut()) {
                let node = &mut nodes[q];
                // Recomputing from the stored α with the same
                // expression as construction ([`project`]) makes the
                // old key bit-identical, so the remove is an exact
                // lookup.
                let old_xi = project(&node.alpha, node.alpha_norm, &pd.old_beta);
                let sn = node.tree.remove(old_xi, |sn| sn.pair == pd.pair).ok_or(
                    ScapeError::DeltaMismatch {
                        detail: "sequence node not found at its old projection",
                    },
                )?;
                let new_xi = project(&node.alpha, node.alpha_norm, &pd.new_beta);
                node.tree.insert(new_xi, sn);
            }
        }
        for sd in &delta.series {
            for nodes in self.loc.iter_mut().flatten() {
                let node = nodes.get_mut(sd.cluster).ok_or(ScapeError::DeltaMismatch {
                    detail: "unknown cluster",
                })?;
                let old_xi = project_loc(sd.old.0, sd.old.1, node.center_loc, node.alpha_norm);
                let v = node.tree.remove(old_xi, |s| *s == sd.series).ok_or(
                    ScapeError::DeltaMismatch {
                        detail: "series node not found at its old projection",
                    },
                )?;
                let new_xi = project_loc(sd.new.0, sd.new.1, node.center_loc, node.alpha_norm);
                node.tree.insert(new_xi, v);
            }
        }
        Ok(())
    }

    /// Size statistics of the built index.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// `true` if the given measure can be queried.
    pub fn supports(&self, measure: Measure) -> bool {
        match measure {
            Measure::Pairwise(PairwiseMeasure::Covariance) => self.cov.is_some(),
            Measure::Pairwise(PairwiseMeasure::DotProduct) => self.dot.is_some(),
            Measure::Pairwise(PairwiseMeasure::Correlation) => {
                self.correlation && self.cov.is_some()
            }
            Measure::Pairwise(PairwiseMeasure::Cosine)
            | Measure::Pairwise(PairwiseMeasure::Dice) => self.dot.is_some(),
            Measure::Location(l) => self.loc[loc_tag(l)].is_some(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_core::prelude::*;
    use affinity_data::generator::{sensor_dataset, SensorConfig};

    fn fixture(n: usize, m: usize) -> (DataMatrix, AffineSet) {
        let data = sensor_dataset(&SensorConfig::reduced(n, m));
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        (data, affine)
    }

    #[test]
    fn builds_all_measures() {
        let (data, affine) = fixture(14, 40);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        for m in Measure::ALL {
            assert!(idx.supports(m), "{} unsupported", m.name());
        }
        let st = idx.stats();
        // cov + dot sequence nodes: 2 * n(n-1)/2.
        assert_eq!(st.pair_sequence_nodes, 2 * data.pair_count());
        // 3 location measures × n series.
        assert_eq!(st.location_series_nodes, 3 * data.series_count());
    }

    #[test]
    fn partial_build_rejects_unindexed() {
        let (data, affine) = fixture(10, 32);
        let idx = ScapeIndex::build(
            &data,
            &affine,
            &[Measure::Pairwise(PairwiseMeasure::DotProduct)],
        )
        .unwrap();
        assert!(idx.supports(Measure::Pairwise(PairwiseMeasure::DotProduct)));
        assert!(!idx.supports(Measure::Pairwise(PairwiseMeasure::Covariance)));
        assert!(!idx.supports(Measure::Location(LocationMeasure::Mean)));
    }

    #[test]
    fn correlation_implies_covariance_nodes() {
        let (data, affine) = fixture(10, 32);
        let idx = ScapeIndex::build(
            &data,
            &affine,
            &[Measure::Pairwise(PairwiseMeasure::Correlation)],
        )
        .unwrap();
        assert!(idx.supports(Measure::Pairwise(PairwiseMeasure::Correlation)));
        assert!(idx.supports(Measure::Pairwise(PairwiseMeasure::Covariance)));
    }

    #[test]
    fn normalizer_bounds_are_consistent() {
        let (data, affine) = fixture(12, 36);
        let idx = ScapeIndex::build(
            &data,
            &affine,
            &[Measure::Pairwise(PairwiseMeasure::Covariance)],
        )
        .unwrap();
        for node in idx.cov.as_ref().unwrap() {
            if node.tree.is_empty() {
                continue;
            }
            let (u_min, u_max) = node.u_bounds[0];
            assert!(u_min <= u_max);
            for (_, sn) in node.tree.iter() {
                assert!(sn.normalizers[0] >= u_min - 1e-12);
                assert!(sn.normalizers[0] <= u_max + 1e-12);
            }
        }
    }

    #[test]
    fn build_rejects_mismatched_shapes() {
        let (_data, affine) = fixture(10, 32);
        let other = sensor_dataset(&SensorConfig::reduced(11, 32));
        assert!(matches!(
            ScapeIndex::build(&other, &affine, &Measure::ALL),
            Err(ScapeError::ShapeMismatch { .. })
        ));
        let truncated = sensor_dataset(&SensorConfig::reduced(10, 16));
        assert!(matches!(
            ScapeIndex::build(&truncated, &affine, &Measure::ALL),
            Err(ScapeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn bulk_build_matches_insert_build_node_for_node() {
        let (data, affine) = fixture(16, 40);
        let bulk = ScapeIndex::build(&data, &affine, &Measure::EXTENDED).unwrap();
        let ins = ScapeIndex::build_insert(&data, &affine, &Measure::EXTENDED).unwrap();
        assert_eq!(bulk.stats(), ins.stats());
        for (a, b) in [(&bulk.cov, &ins.cov), (&bulk.dot, &ins.dot)] {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.len(), b.len());
            for (na, nb) in a.iter().zip(b) {
                assert_eq!(na.alpha, nb.alpha);
                assert_eq!(na.alpha_norm, nb.alpha_norm);
                assert_eq!(na.u_bounds, nb.u_bounds);
                let ea: Vec<(f64, SeqNode)> = na.tree.iter().map(|(k, v)| (k, *v)).collect();
                let eb: Vec<(f64, SeqNode)> = nb.tree.iter().map(|(k, v)| (k, *v)).collect();
                assert_eq!(ea, eb);
            }
        }
        for (la, lb) in bulk.loc.iter().zip(&ins.loc) {
            let (la, lb) = (la.as_ref().unwrap(), lb.as_ref().unwrap());
            for (na, nb) in la.iter().zip(lb) {
                assert_eq!(na.center_loc, nb.center_loc);
                let ea: Vec<(f64, SeriesId)> = na.tree.iter().map(|(k, v)| (k, *v)).collect();
                let eb: Vec<(f64, SeriesId)> = nb.tree.iter().map(|(k, v)| (k, *v)).collect();
                assert_eq!(ea, eb);
            }
        }
    }

    #[test]
    fn build_with_pool_is_identical_to_serial_build() {
        let (data, affine) = fixture(14, 36);
        let serial = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let pool = ThreadPool::new(4);
        let pooled = ScapeIndex::build_with_pool(&data, &affine, &Measure::ALL, &pool).unwrap();
        assert_eq!(serial.stats(), pooled.stats());
        for (a, b) in serial
            .cov
            .as_ref()
            .unwrap()
            .iter()
            .zip(pooled.cov.as_ref().unwrap())
        {
            let ea: Vec<(f64, SequencePair)> = a.tree.iter().map(|(k, v)| (k, v.pair)).collect();
            let eb: Vec<(f64, SequencePair)> = b.tree.iter().map(|(k, v)| (k, v.pair)).collect();
            assert_eq!(ea, eb);
        }
    }

    #[test]
    fn apply_delta_matches_rebuild_with_patched_affine() {
        use crate::delta::{PairDelta, SeriesDelta};
        let (data, mut affine) = fixture(12, 36);
        let mut idx = ScapeIndex::build(&data, &affine, &Measure::EXTENDED).unwrap();
        // Perturb a handful of relationships as a refit would.
        let mut delta = ScapeDelta::default();
        let picks = [0usize, 3, 7, 20];
        let mut patched = Vec::new();
        for &i in &picks {
            let mut rel = affine.relationships()[i].clone();
            let old_beta = rel.beta();
            rel.a[0][1] += 0.05;
            rel.a[1][1] -= 0.02;
            rel.b[1] += 0.3;
            delta.pairs.push(PairDelta {
                pair: rel.pair,
                pivot: rel.pivot,
                old_beta,
                new_beta: rel.beta(),
            });
            patched.push(rel);
        }
        for rel in patched {
            affine.replace_relationship(rel).expect("same pivot");
        }
        let sr = *affine.series_relationship(2);
        let new_sr = affinity_core::affine::SeriesRelationship {
            c: sr.c * 1.1,
            d: sr.d - 0.5,
            ..sr
        };
        delta.series.push(SeriesDelta {
            series: sr.series,
            cluster: sr.cluster,
            old: (sr.c, sr.d),
            new: (new_sr.c, new_sr.d),
        });
        affine
            .replace_series_relationship(new_sr)
            .expect("same cluster");

        idx.apply_delta(&delta).unwrap();
        let rebuilt = ScapeIndex::build(&data, &affine, &Measure::EXTENDED).unwrap();
        // Every tree holds the same key → pair multiset (delta reinserts
        // a moved duplicate at the end of its run, so compare sorted).
        for (a, b) in [(&idx.cov, &rebuilt.cov), (&idx.dot, &rebuilt.dot)] {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            for (na, nb) in a.iter().zip(b) {
                let mut ea: Vec<(f64, SequencePair)> =
                    na.tree.iter().map(|(k, v)| (k, v.pair)).collect();
                let mut eb: Vec<(f64, SequencePair)> =
                    nb.tree.iter().map(|(k, v)| (k, v.pair)).collect();
                ea.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                eb.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                assert_eq!(ea, eb);
            }
        }
        for (la, lb) in idx.loc.iter().zip(&rebuilt.loc) {
            let (la, lb) = (la.as_ref().unwrap(), lb.as_ref().unwrap());
            for (na, nb) in la.iter().zip(lb) {
                let mut ea: Vec<(f64, SeriesId)> = na.tree.iter().map(|(k, v)| (k, *v)).collect();
                let mut eb: Vec<(f64, SeriesId)> = nb.tree.iter().map(|(k, v)| (k, *v)).collect();
                ea.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                eb.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)));
                assert_eq!(ea, eb);
            }
        }
    }

    #[test]
    fn apply_delta_rejects_stale_changes() {
        use crate::delta::PairDelta;
        let (data, affine) = fixture(8, 24);
        let mut idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let rel = &affine.relationships()[0];
        // Wrong old β: the node is not at that projection.
        let delta = ScapeDelta {
            pairs: vec![PairDelta {
                pair: rel.pair,
                pivot: rel.pivot,
                old_beta: [999.0, 999.0, 999.0],
                new_beta: rel.beta(),
            }],
            series: vec![],
        };
        assert!(matches!(
            idx.apply_delta(&delta),
            Err(ScapeError::DeltaMismatch { .. })
        ));
        // Unknown pivot.
        let delta = ScapeDelta {
            pairs: vec![PairDelta {
                pair: rel.pair,
                pivot: PivotPair {
                    common: 7,
                    cluster: 999,
                },
                old_beta: rel.beta(),
                new_beta: rel.beta(),
            }],
            series: vec![],
        };
        assert!(matches!(
            idx.apply_delta(&delta),
            Err(ScapeError::DeltaMismatch { .. })
        ));
    }

    #[test]
    fn every_pair_lands_in_exactly_one_pivot_tree() {
        let (data, affine) = fixture(13, 36);
        let idx = ScapeIndex::build(
            &data,
            &affine,
            &[Measure::Pairwise(PairwiseMeasure::Covariance)],
        )
        .unwrap();
        let mut seen = std::collections::HashSet::new();
        for node in idx.cov.as_ref().unwrap() {
            for (_, sn) in node.tree.iter() {
                assert!(seen.insert(sn.pair), "duplicate {:?}", sn.pair);
            }
        }
        assert_eq!(seen.len(), data.pair_count());
    }
}
