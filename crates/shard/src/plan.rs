//! Shard plans: an explicit series → shard map cut along AFCLST
//! cluster boundaries.
//!
//! Cutting along cluster boundaries keeps each pivot group — a pivot's
//! common series and all its member pairs — inside one shard, so the
//! cross-shard merge never has to split a pivot's B+ tree. Serving
//! fleets instead use [`ShardPlan::blocked`], which every process
//! derives from the shape alone, so the same series stay in the same
//! shard across refreshes and restarts.

use crate::error::ShardError;
use affinity_core::afclst::ClusterModel;
use affinity_data::SeriesId;

/// An explicit series → shard assignment with a fixed shard count.
///
/// Invariants (enforced by every constructor): at least one shard, and
/// every assignment below the shard count. Shards may be empty — a
/// deployment with more shards than clusters simply leaves the surplus
/// shards without series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    assignments: Vec<u32>,
    shards: usize,
}

impl ShardPlan {
    /// The degenerate single-shard plan: every series in shard 0. A
    /// sharded build under this plan is the unsharded build.
    pub fn single(series: usize) -> ShardPlan {
        ShardPlan {
            assignments: vec![0; series],
            shards: 1,
        }
    }

    /// Cut the cluster sequence into `shards` contiguous groups of
    /// roughly equal series count and assign every series to the group
    /// holding its cluster. Deterministic: integer midpoint rule over
    /// the cumulative cluster sizes, no floating point, no randomness.
    ///
    /// # Panics
    /// Panics if `shards` is zero (a plan must have at least one shard).
    pub fn along_clusters(clusters: &ClusterModel, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        let n = clusters.assignments().len();
        let k = clusters.k();
        let mut size = vec![0usize; k];
        for &l in clusters.assignments() {
            size[l] += 1;
        }
        // Shard of cluster l = which K-th of the series range the
        // cluster's midpoint falls in (clusters visited in id order, so
        // the cuts are contiguous over cluster ids).
        let mut cluster_shard = vec![0usize; k];
        let mut cum = 0usize;
        for l in 0..k {
            let midpoint_x2 = 2 * cum + size[l];
            cluster_shard[l] = ((midpoint_x2 * shards) / (2 * n.max(1))).min(shards - 1);
            cum += size[l];
        }
        let assignments = clusters
            .assignments()
            .iter()
            .map(|&l| cluster_shard[l] as u32)
            .collect();
        ShardPlan {
            assignments,
            shards,
        }
    }

    /// Contiguous block plan: series `v` → shard `v·shards / series`.
    /// Derived from the shape alone — no cluster model, no persisted
    /// state — so every process that knows `(series, shards)` computes
    /// the *same* plan across refreshes and restarts. This is the
    /// distributed-serving default: shard servers and the coordinator
    /// agree on ownership without exchanging a plan file.
    ///
    /// Unlike [`ShardPlan::along_clusters`] the cut ignores cluster
    /// boundaries; correctness does not depend on the cut (the merge
    /// layer is exact for any plan), only rebuild locality does.
    ///
    /// # Panics
    /// Panics if `shards` is zero (a plan must have at least one shard).
    pub fn blocked(series: usize, shards: usize) -> ShardPlan {
        assert!(shards >= 1, "a shard plan needs at least one shard");
        let assignments = (0..series)
            .map(|v| ((v * shards) / series.max(1)) as u32)
            .collect();
        ShardPlan {
            assignments,
            shards,
        }
    }

    /// Adopt an explicit assignment map (e.g. the plan a shard reports
    /// in its metadata, or an adversarial cut in the equivalence oracle).
    ///
    /// # Errors
    /// [`ShardError::Plan`] if `shards` is zero or an assignment is out
    /// of range.
    pub fn from_assignments(assignments: Vec<u32>, shards: usize) -> Result<ShardPlan, ShardError> {
        if shards == 0 {
            return Err(ShardError::Plan("shard count must be at least 1".into()));
        }
        if let Some((v, &s)) = assignments
            .iter()
            .enumerate()
            .find(|&(_, &s)| s as usize >= shards)
        {
            return Err(ShardError::Plan(format!(
                "series {v} assigned to shard {s}, but the plan has {shards} shards"
            )));
        }
        Ok(ShardPlan {
            assignments,
            shards,
        })
    }

    /// Number of shards (≥ 1; empty shards count).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Number of series the plan covers.
    pub fn series_count(&self) -> usize {
        self.assignments.len()
    }

    /// Owning shard of series `v`, or `None` for out-of-range ids.
    pub fn shard_of(&self, v: SeriesId) -> Option<usize> {
        self.assignments.get(v).map(|&s| s as usize)
    }

    /// The raw series → shard map (index = series id).
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// The map as `usize` owners, the shape
    /// `AffineSet::partition` consumes.
    pub(crate) fn owner_map(&self) -> Vec<usize> {
        self.assignments.iter().map(|&s| s as usize).collect()
    }

    /// Series owned by `shard`, ascending.
    pub fn members(&self, shard: usize) -> Vec<SeriesId> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s as usize == shard)
            .map(|(v, _)| v)
            .collect()
    }

    /// Boolean ownership mask of `shard` (index = series id), the shape
    /// the masked location-tree build consumes.
    pub(crate) fn owned_mask(&self, shard: usize) -> Vec<bool> {
        self.assignments
            .iter()
            .map(|&s| s as usize == shard)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_core::afclst::{afclst, AfclstParams};
    use affinity_data::generator::{sensor_dataset, SensorConfig};

    fn clusters(n: usize) -> ClusterModel {
        let data = sensor_dataset(&SensorConfig::reduced(n, 48));
        afclst(&data, &AfclstParams::default()).unwrap()
    }

    #[test]
    fn along_clusters_is_a_partition_cut_on_cluster_boundaries() {
        let cm = clusters(24);
        for shards in [1, 2, 3, 5] {
            let plan = ShardPlan::along_clusters(&cm, shards);
            assert_eq!(plan.series_count(), 24);
            assert_eq!(plan.shards(), shards);
            // Every series of a cluster lands in the same shard.
            for (v, &l) in cm.assignments().iter().enumerate() {
                let w = cm.assignments().iter().position(|&x| x == l).unwrap();
                assert_eq!(plan.shard_of(v), plan.shard_of(w), "cluster {l} split");
            }
            // Members of all shards partition the series.
            let total: usize = (0..shards).map(|s| plan.members(s).len()).sum();
            assert_eq!(total, 24);
        }
    }

    #[test]
    fn single_plan_owns_everything() {
        let plan = ShardPlan::single(7);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.members(0).len(), 7);
        assert_eq!(plan.shard_of(6), Some(0));
        assert_eq!(plan.shard_of(7), None);
    }

    #[test]
    fn from_assignments_validates() {
        assert!(ShardPlan::from_assignments(vec![0, 1, 2], 3).is_ok());
        assert!(matches!(
            ShardPlan::from_assignments(vec![0, 3], 3),
            Err(ShardError::Plan(_))
        ));
        assert!(matches!(
            ShardPlan::from_assignments(vec![], 0),
            Err(ShardError::Plan(_))
        ));
    }

    #[test]
    fn blocked_plan_is_a_stable_contiguous_partition() {
        for (n, k) in [(8, 2), (24, 4), (3, 5), (1, 1)] {
            let plan = ShardPlan::blocked(n, k);
            assert_eq!(plan.series_count(), n);
            assert_eq!(plan.shards(), k);
            // Assignments are ascending (contiguous blocks) and valid.
            for v in 1..n {
                assert!(plan.shard_of(v) >= plan.shard_of(v - 1));
            }
            let total: usize = (0..k).map(|s| plan.members(s).len()).sum();
            assert_eq!(total, n);
            // Stable: recomputing from the shape gives the same plan.
            assert_eq!(plan, ShardPlan::blocked(n, k));
        }
        // Balanced when divisible.
        let plan = ShardPlan::blocked(8, 2);
        assert_eq!(plan.members(0), vec![0, 1, 2, 3]);
        assert_eq!(plan.members(1), vec![4, 5, 6, 7]);
    }

    #[test]
    fn deterministic_cuts() {
        let cm = clusters(30);
        let a = ShardPlan::along_clusters(&cm, 4);
        let b = ShardPlan::along_clusters(&cm, 4);
        assert_eq!(a, b);
    }
}
