//! Sharded model construction: partition the global affine set along a
//! [`ShardPlan`] and build each shard's engine + index on a shared pool.
//!
//! The build is *partition-of-global*: the affine set is fitted once
//! (by SYMEX, exactly as the unsharded path does) and then split —
//! every β vector, pivot, and series fit is carried into its owning
//! shard unchanged. Per-shard work (pivot statistics, tree assembly)
//! streams through the caller's [`SeriesSource`], so an out-of-core
//! backing (on-disk store, bounded cache) shards exactly like a
//! resident matrix and produces bit-identical models.

use crate::error::ShardError;
use crate::model::{ShardModel, ShardedModel, SharedCore};
use crate::plan::ShardPlan;
use affinity_core::affine::PivotStats;
use affinity_core::measures::Measure;
use affinity_core::symex::{AffineSet, Symex, SymexParams};
use affinity_data::source::{prefetch_window, scan_sequence, with_column_buffers};
use affinity_data::SeriesSource;
use affinity_linalg::vector;
use affinity_par::ThreadPool;
use std::sync::Arc;

/// Global pivot ordinals per shard: entry `s` lists, in that shard's
/// local pivot order, the position each pivot holds in the global
/// pivot list. Partitioning preserves relative order, so each shard's
/// list is ascending.
fn ordinals_per_shard(affine: &AffineSet, owner: &[usize], shards: usize) -> Vec<Vec<u32>> {
    let mut out = vec![Vec::new(); shards];
    for (g, p) in affine.pivots().iter().enumerate() {
        out[owner[p.common]].push(g as u32);
    }
    out
}

impl ShardedModel {
    /// Partition a globally-fitted [`AffineSet`] into a sharded model.
    ///
    /// The shards are partitions of `affine` — fits are never redone —
    /// so every query the merge layer answers is bit-identical to the
    /// unsharded model, for any plan and shard count. Raw data is read
    /// only for pivot statistics (per shard) and the global normalizer
    /// tables (once); `source` can be resident or out-of-core.
    ///
    /// # Errors
    /// [`ShardError::Plan`] when plan, affine set, and source shapes
    /// disagree; [`ShardError::Source`] on fetch failures;
    /// [`ShardError::Core`] if a shard's engine rejects its parts.
    pub fn from_global<S: SeriesSource + ?Sized>(
        source: &S,
        affine: &AffineSet,
        plan: ShardPlan,
        indexed: &[Measure],
        pool: Arc<ThreadPool>,
    ) -> Result<ShardedModel, ShardError> {
        let n = affine.series_count();
        if plan.series_count() != n {
            return Err(ShardError::Plan(format!(
                "plan covers {} series but the model has {n}",
                plan.series_count()
            )));
        }
        if source.series_count() != n || source.samples() != affine.samples() {
            return Err(ShardError::Plan(format!(
                "source shape ({}, {}) does not match the model ({n}, {})",
                source.series_count(),
                source.samples(),
                affine.samples()
            )));
        }
        let k = plan.shards();
        let owner = plan.owner_map();
        let parts = affine.partition(&owner, k);
        let ordinals = ordinals_per_shard(affine, &owner, k);

        // Global normalizer tables, computed once and shared: every
        // shard's engine needs the full-length variance / self-dot
        // vectors (a pair's normalizer references both members, and a
        // member may live in another shard).
        let scan = scan_sequence(n);
        let marginals: Vec<Result<(f64, f64), ShardError>> = pool.parallel_map(n, |v| {
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
        let variances = Arc::new(variances);
        let self_dots = Arc::new(self_dots);

        // Shards are built one after another; *within* each shard the
        // pivot statistics fan out across the shared pool's lanes, each
        // lane streaming columns from the source.
        let mut shards = Vec::with_capacity(k);
        for (i, (part, ords)) in parts.into_iter().zip(ordinals).enumerate() {
            let shard = build_shard(
                source, part, ords, &plan, i, indexed, &variances, &self_dots, &pool,
            )?;
            shards.push(Arc::new(shard));
        }
        Ok(ShardedModel {
            shared: SharedCore {
                plan,
                series_count: n,
                samples: affine.samples(),
                indexed: indexed.to_vec(),
                variances,
                self_dots,
            },
            shards,
        })
    }

    /// Convenience end-to-end build: run AFCLST + SYMEX once globally,
    /// cut a plan along the cluster boundaries, and partition.
    ///
    /// # Errors
    /// Clustering / fit errors as [`ShardError::Core`], then as for
    /// [`ShardedModel::from_global`].
    pub fn build<S: SeriesSource + ?Sized>(
        source: &S,
        params: &SymexParams,
        shards: usize,
        indexed: &[Measure],
    ) -> Result<ShardedModel, ShardError> {
        let pool = Arc::new(ThreadPool::new(params.threads));
        let symex = Symex::with_pool(params.clone(), Arc::clone(&pool));
        let affine = symex.run(source)?;
        let plan = ShardPlan::along_clusters(affine.clusters(), shards);
        Self::from_global(source, &affine, plan, indexed, pool)
    }
}

/// Build one shard from its partition: per-pivot statistics read
/// straight from `source` (fanned out over the shared pool), a masked
/// index, and an engine over the shared normalizer tables.
#[allow(clippy::too_many_arguments)]
fn build_shard<S: SeriesSource + ?Sized>(
    source: &S,
    part: AffineSet,
    ordinals: Vec<u32>,
    plan: &ShardPlan,
    shard: usize,
    indexed: &[Measure],
    variances: &Arc<Vec<f64>>,
    self_dots: &Arc<Vec<f64>>,
    pool: &Arc<ThreadPool>,
) -> Result<ShardModel, ShardError> {
    let clusters = part.clusters();
    let commons: Vec<u32> = part.pivots().iter().map(|p| p.common as u32).collect();
    let stats: Vec<PivotStats> = pool
        .parallel_map(part.pivots().len(), |q| {
            with_column_buffers(|buf, _| {
                let p = part.pivots()[q];
                prefetch_window(source, &commons, q);
                let common = source.read_into(p.common, buf)?;
                Ok(PivotStats::compute(common, clusters.center(p.cluster)))
            })
        })
        .into_iter()
        .collect::<Result<_, ShardError>>()?;
    let mask = plan.owned_mask(shard);
    let index = affinity_scape::ScapeIndex::build_from_stats(
        &part,
        &stats,
        variances,
        self_dots,
        indexed,
        Some(&mask),
        pool,
    );
    let owned: Vec<u32> = plan.members(shard).iter().map(|&v| v as u32).collect();
    ShardModel::assemble(
        part,
        index,
        &stats,
        ordinals,
        owned,
        variances,
        self_dots,
        Arc::clone(pool),
    )
}
