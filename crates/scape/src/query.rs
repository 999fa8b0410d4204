//! MET / MER query processing over the SCAPE index (paper Secs. 5.2–5.3).
//!
//! A MET threshold is a MER range with one open side, so one [`Filter`]
//! drives every query. Each node family has one per-node scan: it turns
//! the filter into the node's definite key range (modified thresholds
//! `τ/‖α‖`) plus, for D-measures, the verify bands of Sec. 5.3, and
//! hands both to a [`Sink`] — collect pairs, collect per-node chunks,
//! collect keyed series, or count from subtree counts.

use crate::error::ScapeError;
use crate::index::{loc_tag, LocPivotNode, PairPivotNode, ScapeIndex, SeqNode};
use affinity_core::measures::{LocationMeasure, PairwiseMeasure};
use affinity_data::{SequencePair, SeriesId};
use affinity_index::BPlusTree;
use std::ops::Bound;

/// Direction of a measure-threshold (MET) query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThresholdOp {
    /// Return entries with measure value `> τ`.
    Greater,
    /// Return entries with measure value `< τ`.
    Less,
}

/// The row predicate of a MET or MER query — the only predicate every
/// layer from the statement planner down to the index passes along.
///
/// A threshold is a range with one open side: `> τ` is `(τ, +∞)` and
/// `< τ` is `(−∞, τ)`; every bound is exclusive. A NaN bound selects
/// nothing (and counts 0), on the index exactly as in a scan.
#[derive(Debug, Clone, Copy)]
pub enum Filter {
    /// MET: value `> tau` or `< tau`.
    Threshold {
        /// Comparison direction.
        op: ThresholdOp,
        /// The threshold.
        tau: f64,
    },
    /// MER: `lo < value < hi`.
    Range {
        /// Exclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
}

/// Evaluate `$body` with `$iv` bound to `$filter` as an [`Interval`].
/// Each filter shape gets its own copy of `$body`, so a scan's tree
/// calls compile for bound kinds known in advance. Deciding the kinds
/// at run time made a search about 7 % slower per pivot.
macro_rules! with_interval {
    ($filter:expr, |$iv:ident| $body:expr) => {
        match $filter {
            Filter::Threshold {
                op: ThresholdOp::Greater,
                tau,
            } => {
                let $iv = Interval::<true, false> { lo: tau, hi: 0.0 };
                $body
            }
            Filter::Threshold {
                op: ThresholdOp::Less,
                tau,
            } => {
                let $iv = Interval::<false, true> { lo: 0.0, hi: tau };
                $body
            }
            Filter::Range { lo, hi } => {
                let $iv = Interval::<true, true> { lo, hi };
                $body
            }
        }
    };
}

impl Filter {
    /// Whether `x` passes — the test a fallback scan applies per value
    /// and the index applies inside its verify bands.
    pub fn keep(&self, x: f64) -> bool {
        with_interval!(*self, |iv| iv.keep(x))
    }

    /// [`ScapeError::EmptyRange`] for an inverted range.
    fn check(&self) -> Result<(), ScapeError> {
        match *self {
            Filter::Range { lo, hi } if lo > hi => Err(ScapeError::EmptyRange),
            _ => Ok(()),
        }
    }
}

/// A filter as the open interval `(lo, hi)`. `LO` and `HI` say whether
/// that side is bounded; an open side's value is never read.
#[derive(Clone, Copy)]
struct Interval<const LO: bool, const HI: bool> {
    lo: f64,
    hi: f64,
}

impl<const LO: bool, const HI: bool> Interval<LO, HI> {
    fn keep(self, x: f64) -> bool {
        (!LO || self.lo < x) && (!HI || x < self.hi)
    }

    /// A NaN bound selects nothing.
    fn is_nan(self) -> bool {
        (LO && self.lo.is_nan()) || (HI && self.hi.is_nan())
    }

    /// `f` of each bounded side; `None` for an open one.
    fn sides<T>(self, f: impl Fn(f64) -> T) -> (Option<T>, Option<T>) {
        (LO.then(|| f(self.lo)), HI.then(|| f(self.hi)))
    }
}

/// An exclusive tree bound, `Unbounded` for an open side.
fn excluded(side: Option<f64>) -> Bound<f64> {
    side.map_or(Bound::Unbounded, Bound::Excluded)
}

/// Where a per-node scan puts its matches.
trait Sink<V> {
    /// Every entry of `tree` keyed inside `(lo, hi)` matches.
    fn definite(&mut self, tree: &BPlusTree<V>, lo: Bound<f64>, hi: Bound<f64>);
    /// One verified entry; it matches when `pass`.
    fn verified(&mut self, pass: bool, key: f64, value: &V);
}

impl Sink<SeqNode> for Vec<SequencePair> {
    fn definite(&mut self, tree: &BPlusTree<SeqNode>, lo: Bound<f64>, hi: Bound<f64>) {
        self.extend(tree.range(lo, hi).map(|(_, sn)| sn.pair));
    }

    fn verified(&mut self, pass: bool, _: f64, sn: &SeqNode) {
        if pass {
            self.push(sn.pair);
        }
    }
}

impl Sink<SeriesId> for Vec<SeriesId> {
    fn definite(&mut self, tree: &BPlusTree<SeriesId>, lo: Bound<f64>, hi: Bound<f64>) {
        self.extend(tree.range(lo, hi).map(|(_, v)| *v));
    }

    fn verified(&mut self, pass: bool, _: f64, v: &SeriesId) {
        if pass {
            self.push(*v);
        }
    }
}

impl Sink<SeriesId> for Vec<(f64, SeriesId)> {
    fn definite(&mut self, tree: &BPlusTree<SeriesId>, lo: Bound<f64>, hi: Bound<f64>) {
        self.extend(tree.range(lo, hi).map(|(k, v)| (k, *v)));
    }

    fn verified(&mut self, pass: bool, key: f64, v: &SeriesId) {
        if pass {
            self.push((key, *v));
        }
    }
}

/// Counts matches; definite ranges answer from subtree counts, and
/// verified entries add without a branch.
struct Count(usize);

impl<V> Sink<V> for Count {
    fn definite(&mut self, tree: &BPlusTree<V>, lo: Bound<f64>, hi: Bound<f64>) {
        self.0 += tree.count_range(lo, hi);
    }

    fn verified(&mut self, pass: bool, _: f64, _: &V) {
        self.0 += usize::from(pass);
    }
}

impl ScapeIndex {
    /// Resolve a pairwise measure to its pivot-node family and — for
    /// derived measures — the normalizer slot within the sequence nodes.
    fn pair_nodes(
        &self,
        measure: PairwiseMeasure,
    ) -> Result<(&Vec<PairPivotNode>, Option<usize>), ScapeError> {
        let missing = ScapeError::MeasureNotIndexed {
            measure: measure.name(),
        };
        match measure {
            PairwiseMeasure::Covariance => Ok((self.cov.as_ref().ok_or(missing)?, None)),
            PairwiseMeasure::DotProduct => Ok((self.dot.as_ref().ok_or(missing)?, None)),
            PairwiseMeasure::Correlation => {
                if !self.correlation {
                    return Err(missing);
                }
                Ok((self.cov.as_ref().ok_or(missing)?, Some(0)))
            }
            PairwiseMeasure::Cosine => Ok((self.dot.as_ref().ok_or(missing)?, Some(0))),
            PairwiseMeasure::Dice => Ok((self.dot.as_ref().ok_or(missing)?, Some(1))),
        }
    }

    /// Run the pair scan of `filter` over every pivot node of `measure`
    /// in pivot order, polling `cancel` before each; `node_done(q, sink)`
    /// runs after pivot `q`.
    fn pair_scan<S: Sink<SeqNode>>(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        cancel: &dyn Fn() -> bool,
        sink: &mut S,
        mut node_done: impl FnMut(usize, &mut S),
    ) -> Result<(), ScapeError> {
        filter.check()?;
        let (nodes, slot) = self.pair_nodes(measure)?;
        with_interval!(filter, |iv| {
            if iv.is_nan() {
                return Ok(());
            }
            for (q, node) in nodes.iter().enumerate() {
                if cancel() {
                    return Err(ScapeError::Cancelled);
                }
                scan_pair_node(node, slot, iv, sink);
                node_done(q, sink);
            }
        });
        Ok(())
    }

    /// Run the series scan of `filter` over every cluster node of
    /// `measure` in cluster order; `node_done(sink)` runs after each.
    fn series_scan<S: Sink<SeriesId>>(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        sink: &mut S,
        mut node_done: impl FnMut(&mut S),
    ) -> Result<(), ScapeError> {
        filter.check()?;
        let nodes = self.loc[loc_tag(measure)]
            .as_ref()
            .ok_or(ScapeError::MeasureNotIndexed {
                measure: measure.name(),
            })?;
        with_interval!(filter, |iv| {
            for node in nodes {
                if !iv.is_nan() {
                    scan_series_node(node, iv, sink);
                }
                node_done(sink);
            }
        });
        Ok(())
    }

    /// MET / MER over a pairwise measure (paper Queries 2 and 3): every
    /// sequence pair whose value passes `filter`, pivot by pivot.
    /// `cancel` is polled between per-pivot scans; a `true` return aborts
    /// with [`ScapeError::Cancelled`] instead of materializing the
    /// remaining pivots.
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
        let mut out = Vec::new();
        self.pair_scan(measure, filter, cancel, &mut out, |_, _| {})?;
        Ok(out)
    }

    /// [`search_pairs`](ScapeIndex::search_pairs) grouped by pivot node:
    /// `(node_index, pairs)` per pivot that contributed at least one
    /// pair, in pivot order. Both share the per-node scan, so
    /// concatenating the groups reproduces the flat answer exactly — and
    /// a sharded deployment can splice groups from several indexes in
    /// global pivot order to reproduce the *global* flat answer
    /// bit-for-bit.
    ///
    /// # Errors
    /// See [`search_pairs`](ScapeIndex::search_pairs).
    pub fn search_pairs_grouped(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        cancel: &dyn Fn() -> bool,
    ) -> Result<Vec<(usize, Vec<SequencePair>)>, ScapeError> {
        let mut out = Vec::new();
        self.pair_scan(measure, filter, cancel, &mut Vec::new(), |q, chunk| {
            if !chunk.is_empty() {
                out.push((q, std::mem::take(chunk)));
            }
        })?;
        Ok(out)
    }

    /// Count of the [`search_pairs`](ScapeIndex::search_pairs) answer
    /// without materializing it: definite key ranges answer from each
    /// pivot tree's subtree counts (`O(log g)` per pivot); only the
    /// pruning band of a D-measure is verified node by node.
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn count_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
    ) -> Result<usize, ScapeError> {
        let mut count = Count(0);
        self.pair_scan(measure, filter, &|| false, &mut count, |_, _| {})?;
        Ok(count.0)
    }

    /// MET / MER over a location measure: every series whose value
    /// passes `filter`, cluster by cluster.
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn search_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
    ) -> Result<Vec<SeriesId>, ScapeError> {
        let mut out = Vec::new();
        self.series_scan(measure, filter, &mut out, |_| {})?;
        Ok(out)
    }

    /// [`search_series`](ScapeIndex::search_series) with the tree keys
    /// retained, grouped per cluster node: element `l` holds the
    /// matching `(ξ, series)` entries of cluster `l` in tree order.
    ///
    /// Every shard of a sharded deployment shares the cluster model, so
    /// a cluster's ξ keys are comparable across shards; k-way merging
    /// shard lists by `(ξ, series)` reproduces the global tree order
    /// (equal-ξ runs are series-ascending by construction).
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn search_series_keyed(
        &self,
        measure: LocationMeasure,
        filter: Filter,
    ) -> Result<Vec<Vec<(f64, SeriesId)>>, ScapeError> {
        let mut out = Vec::new();
        self.series_scan(measure, filter, &mut Vec::new(), |cluster| {
            out.push(std::mem::take(cluster));
        })?;
        Ok(out)
    }

    /// Count of the [`search_series`](ScapeIndex::search_series) answer
    /// from subtree counts, `O(log n)` per cluster node.
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn count_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
    ) -> Result<usize, ScapeError> {
        let mut count = Count(0);
        self.series_scan(measure, filter, &mut count, |_| {})?;
        Ok(count.0)
    }

    /// [`search_pairs`](ScapeIndex::search_pairs) of `Filter::Threshold`.
    ///
    /// # Errors
    /// [`ScapeError::MeasureNotIndexed`] if the measure was not built.
    pub fn threshold_pairs(
        &self,
        measure: PairwiseMeasure,
        op: ThresholdOp,
        tau: f64,
    ) -> Result<Vec<SequencePair>, ScapeError> {
        self.search_pairs(measure, Filter::Threshold { op, tau }, &|| false)
    }

    /// [`search_pairs`](ScapeIndex::search_pairs) of `Filter::Range`.
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn range_pairs(
        &self,
        measure: PairwiseMeasure,
        tau_l: f64,
        tau_u: f64,
    ) -> Result<Vec<SequencePair>, ScapeError> {
        self.search_pairs(
            measure,
            Filter::Range {
                lo: tau_l,
                hi: tau_u,
            },
            &|| false,
        )
    }

    /// [`count_pairs`](ScapeIndex::count_pairs) of `Filter::Threshold`.
    ///
    /// # Errors
    /// [`ScapeError::MeasureNotIndexed`] if the measure was not built.
    pub fn count_threshold_pairs(
        &self,
        measure: PairwiseMeasure,
        op: ThresholdOp,
        tau: f64,
    ) -> Result<usize, ScapeError> {
        self.count_pairs(measure, Filter::Threshold { op, tau })
    }

    /// [`count_pairs`](ScapeIndex::count_pairs) of `Filter::Range`.
    ///
    /// # Errors
    /// [`ScapeError::EmptyRange`] or [`ScapeError::MeasureNotIndexed`].
    pub fn count_range_pairs(
        &self,
        measure: PairwiseMeasure,
        tau_l: f64,
        tau_u: f64,
    ) -> Result<usize, ScapeError> {
        self.count_pairs(
            measure,
            Filter::Range {
                lo: tau_l,
                hi: tau_u,
            },
        )
    }
}

/// The per-node scan of a pair pivot.
///
/// T-measures (`slot == None`) compare ξ against the modified bounds
/// `τ/‖α‖` (Sec. 5.2): one definite key range. Zero-α pivots store
/// ξ = 0 for a reconstructed value of 0, so they match whole or not at
/// all.
///
/// D-measures prune with the normalizer bounds (Sec. 5.3): each bounded
/// side has a band of ξ that must be verified from the stored
/// normalizer; between the bands every node is definitely in (the
/// paper's case I), beyond them definitely out. When the bands overlap
/// (case II) only verification of `[lower band start, upper band end]`
/// remains. A threshold has one bounded side, hence one band: the scan
/// emits its definite side, then verifies that band.
///
/// Always inlined into the pivot loop, where `slot` is the same for
/// every pivot, so the branches of the other measure family fold away.
// `!(u_min > 0.0)` and `!(l_hi < u_lo)` deliberately treat NaN as
// degenerate.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline(always)]
fn scan_pair_node<const LO: bool, const HI: bool, S: Sink<SeqNode>>(
    node: &PairPivotNode,
    slot: Option<usize>,
    iv: Interval<LO, HI>,
    sink: &mut S,
) {
    let tree = &node.tree;
    let alpha = node.alpha_norm;
    let open = (Bound::Unbounded, Bound::Unbounded);
    let included = |(lo, hi): (f64, f64)| (Bound::Included(lo), Bound::Included(hi));
    // The definite key range, the verify bands, and the ‖α‖ to verify
    // with.
    let (definite, bands, alpha) = match slot {
        None if alpha > 0.0 => {
            let (lo, hi) = iv.sides(|t| t / alpha);
            (Some((excluded(lo), excluded(hi))), [None, None], alpha)
        }
        None => (iv.keep(0.0).then_some(open), [None, None], alpha),
        Some(_) if tree.is_empty() => (None, [None, None], alpha),
        // Degenerate pivots (zero α or a zero normalizer present) lose the
        // monotone pruning argument and verify every node.
        Some(slot) if alpha <= 0.0 || !(node.u_bounds[slot].0 > 0.0) => {
            (None, [Some(open), None], alpha.max(0.0))
        }
        Some(slot) => {
            let (lo_band, hi_band) = iv.sides(|tau| prune_band(node, slot, tau));
            match (lo_band, hi_band) {
                (Some((l_lo, l_hi)), Some((u_lo, u_hi))) if !(l_hi < u_lo) => {
                    (None, [Some(included((l_lo, u_hi))), None], alpha)
                }
                _ => (
                    Some((
                        excluded(lo_band.map(|(_, l_hi)| l_hi)),
                        excluded(hi_band.map(|(u_lo, _)| u_lo)),
                    )),
                    [lo_band.map(included), hi_band.map(included)],
                    alpha,
                ),
            }
        }
    };
    if let Some((lo, hi)) = definite {
        sink.definite(tree, lo, hi);
    }
    let Some(slot) = slot else {
        return;
    };
    for (lo, hi) in bands.into_iter().flatten() {
        for (xi, sn) in tree.range(lo, hi) {
            let pass = iv.keep(derived_value(xi, alpha, sn.normalizers[slot]));
            sink.verified(pass, xi, sn);
        }
    }
}

/// The per-node scan of a cluster node: `‖α‖ = √(L(r)² + 1) ≥ 1 > 0`
/// always, so every filter is one definite key range over the modified
/// bounds `τ/‖α‖`.
fn scan_series_node<const LO: bool, const HI: bool, S: Sink<SeriesId>>(
    node: &LocPivotNode,
    iv: Interval<LO, HI>,
    sink: &mut S,
) {
    let (lo, hi) = iv.sides(|t| t / node.alpha_norm);
    sink.definite(&node.tree, excluded(lo), excluded(hi));
}

/// A derived measure reconstructed from a sequence node:
/// `value = ξ·‖α‖ / U_e`, with the framework-wide convention `0` for
/// zero normalizers.
#[inline]
fn derived_value(xi: f64, alpha_norm: f64, normalizer: f64) -> f64 {
    if normalizer > 0.0 {
        xi * alpha_norm / normalizer
    } else {
        0.0
    }
}

/// The pruning band of Sec. 5.3 for one bound `τ`: nodes with
/// `ξ > hi` satisfy `ξ·‖α‖ > τ·U` for **every** normalizer in
/// `[u_min, u_max]`; nodes with `ξ < lo` satisfy the complement. Written
/// with min/max so negative thresholds (where `τ·U_min ≥ τ·U_max`) work
/// unchanged.
#[inline]
fn prune_band(node: &PairPivotNode, slot: usize, tau: f64) -> (f64, f64) {
    let (u_min, u_max) = node.u_bounds[slot];
    let a = tau * u_min / node.alpha_norm;
    let b = tau * u_max / node.alpha_norm;
    (a.min(b), a.max(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_core::prelude::*;
    use affinity_data::generator::{sensor_dataset, stock_dataset, SensorConfig, StockConfig};
    use affinity_data::DataMatrix;

    /// Oracle: filter the W_A values (the same values SCAPE stores) by
    /// brute force.
    struct Oracle<'a> {
        engine: MecEngine<'a>,
        data: &'a DataMatrix,
    }

    impl<'a> Oracle<'a> {
        fn new(data: &'a DataMatrix, affine: &'a AffineSet) -> Self {
            Oracle {
                engine: MecEngine::new(data, affine),
                data,
            }
        }

        fn pairs_threshold(
            &self,
            m: PairwiseMeasure,
            op: ThresholdOp,
            tau: f64,
        ) -> Vec<SequencePair> {
            self.data
                .sequence_pairs()
                .into_iter()
                .filter(|&p| {
                    let v = self.engine.pair_value(m, p).unwrap();
                    match op {
                        ThresholdOp::Greater => v > tau,
                        ThresholdOp::Less => v < tau,
                    }
                })
                .collect()
        }

        fn pairs_range(&self, m: PairwiseMeasure, lo: f64, hi: f64) -> Vec<SequencePair> {
            self.data
                .sequence_pairs()
                .into_iter()
                .filter(|&p| {
                    let v = self.engine.pair_value(m, p).unwrap();
                    lo < v && v < hi
                })
                .collect()
        }

        fn series_threshold(&self, m: LocationMeasure, op: ThresholdOp, tau: f64) -> Vec<SeriesId> {
            (0..self.data.series_count())
                .filter(|&v| {
                    let val = self.engine.location_value(m, v).unwrap();
                    match op {
                        ThresholdOp::Greater => val > tau,
                        ThresholdOp::Less => val < tau,
                    }
                })
                .collect()
        }
    }

    fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
        v.sort();
        v
    }

    fn fixture(n: usize, m: usize) -> (DataMatrix, AffineSet) {
        let data = sensor_dataset(&SensorConfig::reduced(n, m));
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        (data, affine)
    }

    #[test]
    fn covariance_threshold_matches_oracle() {
        let (data, affine) = fixture(18, 48);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let oracle = Oracle::new(&data, &affine);
        for tau in [-0.5, 0.0, 0.01, 0.2, 1.0] {
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                let got = sorted(
                    idx.threshold_pairs(PairwiseMeasure::Covariance, op, tau)
                        .unwrap(),
                );
                let want = sorted(oracle.pairs_threshold(PairwiseMeasure::Covariance, op, tau));
                assert_eq!(got, want, "tau {tau}, op {op:?}");
            }
        }
    }

    #[test]
    fn dot_threshold_matches_oracle() {
        let (data, affine) = fixture(15, 40);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let oracle = Oracle::new(&data, &affine);
        // Dot products of offset sensor data are large positive numbers.
        let all: Vec<f64> = data
            .sequence_pairs()
            .iter()
            .map(|&p| {
                oracle
                    .engine
                    .pair_value(PairwiseMeasure::DotProduct, p)
                    .unwrap()
            })
            .collect();
        let mid = all.iter().sum::<f64>() / all.len() as f64;
        for tau in [mid * 0.5, mid, mid * 1.5] {
            let got = sorted(
                idx.threshold_pairs(PairwiseMeasure::DotProduct, ThresholdOp::Greater, tau)
                    .unwrap(),
            );
            let want = sorted(oracle.pairs_threshold(
                PairwiseMeasure::DotProduct,
                ThresholdOp::Greater,
                tau,
            ));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn correlation_threshold_matches_oracle_incl_negative_taus() {
        let (data, affine) = fixture(20, 64);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let oracle = Oracle::new(&data, &affine);
        for tau in [-0.95, -0.5, 0.0, 0.3, 0.7, 0.9, 0.99] {
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                let got = sorted(
                    idx.threshold_pairs(PairwiseMeasure::Correlation, op, tau)
                        .unwrap(),
                );
                let want = sorted(oracle.pairs_threshold(PairwiseMeasure::Correlation, op, tau));
                assert_eq!(got, want, "tau {tau}, op {op:?}");
            }
        }
    }

    #[test]
    fn correlation_range_matches_oracle_both_cases() {
        let (data, affine) = fixture(20, 64);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let oracle = Oracle::new(&data, &affine);
        // Wide range triggers case I (definite-in core), narrow range
        // triggers case II.
        for (lo, hi) in [
            (-1.5, 1.5),
            (0.2, 0.9),
            (0.59, 0.61),
            (-0.9, -0.1),
            (0.0, 0.0001),
        ] {
            let got = sorted(
                idx.range_pairs(PairwiseMeasure::Correlation, lo, hi)
                    .unwrap(),
            );
            let want = sorted(oracle.pairs_range(PairwiseMeasure::Correlation, lo, hi));
            assert_eq!(got, want, "range ({lo}, {hi})");
        }
    }

    #[test]
    fn covariance_range_matches_oracle() {
        let (data, affine) = fixture(16, 48);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let oracle = Oracle::new(&data, &affine);
        for (lo, hi) in [(-1.0, 1.0), (0.0, 0.5), (-0.2, 0.0)] {
            let got = sorted(
                idx.range_pairs(PairwiseMeasure::Covariance, lo, hi)
                    .unwrap(),
            );
            let want = sorted(oracle.pairs_range(PairwiseMeasure::Covariance, lo, hi));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn location_threshold_and_range_match_oracle() {
        let (data, affine) = fixture(25, 48);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let oracle = Oracle::new(&data, &affine);
        for measure in LocationMeasure::ALL {
            let vals: Vec<f64> = oracle.engine.location_all(measure);
            let mid = vals.iter().sum::<f64>() / vals.len() as f64;
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                let got = sorted(
                    idx.search_series(measure, Filter::Threshold { op, tau: mid })
                        .unwrap(),
                );
                let want = sorted(oracle.series_threshold(measure, op, mid));
                assert_eq!(got, want, "{} {op:?}", measure.name());
            }
            let lo = mid - 1.0;
            let hi = mid + 1.0;
            let got = sorted(
                idx.search_series(measure, Filter::Range { lo, hi })
                    .unwrap(),
            );
            let want: Vec<SeriesId> = (0..data.series_count())
                .filter(|&v| {
                    let x = oracle.engine.location_value(measure, v).unwrap();
                    lo < x && x < hi
                })
                .collect();
            assert_eq!(got, want, "{} range", measure.name());
        }
    }

    #[test]
    fn stock_data_correlation_queries_also_match() {
        let data = stock_dataset(&StockConfig::reduced(16, 96));
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let oracle = Oracle::new(&data, &affine);
        for tau in [0.5, 0.8, 0.95] {
            let got = sorted(
                idx.threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, tau)
                    .unwrap(),
            );
            let want = sorted(oracle.pairs_threshold(
                PairwiseMeasure::Correlation,
                ThresholdOp::Greater,
                tau,
            ));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn cosine_and_dice_match_oracle() {
        // The dot-product-derived extensions (paper Sec. 2.1) go through
        // the same normalizer-bound pruning machinery as correlation.
        let (data, affine) = fixture(18, 48);
        let idx = ScapeIndex::build(&data, &affine, &Measure::EXTENDED).unwrap();
        let oracle = Oracle::new(&data, &affine);
        for measure in [PairwiseMeasure::Cosine, PairwiseMeasure::Dice] {
            for tau in [-0.5, 0.0, 0.5, 0.9, 0.99] {
                for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                    let got = sorted(idx.threshold_pairs(measure, op, tau).unwrap());
                    let want = sorted(oracle.pairs_threshold(measure, op, tau));
                    assert_eq!(got, want, "{} tau {tau} {op:?}", measure.name());
                }
            }
            for (lo, hi) in [(0.0, 0.9), (0.89, 0.91), (-1.0, 1.0)] {
                let got = sorted(idx.range_pairs(measure, lo, hi).unwrap());
                let want = sorted(oracle.pairs_range(measure, lo, hi));
                assert_eq!(got, want, "{} range ({lo}, {hi})", measure.name());
            }
        }
    }

    #[test]
    fn dot_index_serves_cosine_and_dice() {
        let (data, affine) = fixture(10, 32);
        let idx = ScapeIndex::build(
            &data,
            &affine,
            &[Measure::Pairwise(PairwiseMeasure::Cosine)],
        )
        .unwrap();
        assert!(idx.supports(Measure::Pairwise(PairwiseMeasure::Cosine)));
        assert!(idx.supports(Measure::Pairwise(PairwiseMeasure::Dice)));
        assert!(idx.supports(Measure::Pairwise(PairwiseMeasure::DotProduct)));
        assert!(!idx.supports(Measure::Pairwise(PairwiseMeasure::Correlation)));
        assert!(idx
            .threshold_pairs(PairwiseMeasure::Dice, ThresholdOp::Greater, 0.9)
            .is_ok());
    }

    #[test]
    fn unindexed_measures_error() {
        let (data, affine) = fixture(8, 24);
        let idx = ScapeIndex::build(
            &data,
            &affine,
            &[Measure::Pairwise(PairwiseMeasure::Covariance)],
        )
        .unwrap();
        assert!(matches!(
            idx.threshold_pairs(PairwiseMeasure::DotProduct, ThresholdOp::Greater, 0.0),
            Err(ScapeError::MeasureNotIndexed { .. })
        ));
        assert!(matches!(
            idx.search_series(
                LocationMeasure::Mean,
                Filter::Threshold {
                    op: ThresholdOp::Greater,
                    tau: 0.0
                }
            ),
            Err(ScapeError::MeasureNotIndexed { .. })
        ));
    }

    #[test]
    fn inverted_range_errors() {
        let (data, affine) = fixture(8, 24);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        assert_eq!(
            idx.range_pairs(PairwiseMeasure::Covariance, 1.0, -1.0),
            Err(ScapeError::EmptyRange)
        );
        assert_eq!(
            idx.search_series(LocationMeasure::Mean, Filter::Range { lo: 1.0, hi: -1.0 }),
            Err(ScapeError::EmptyRange)
        );
    }

    /// Series 0 is constant; the rest are noisy affine images of a
    /// shared sinusoid. The marching traversal anchors every pair
    /// (0, v) at a pivot whose common series is the constant one, so
    /// its covariance α is zero.
    fn constant_series_fixture() -> (DataMatrix, AffineSet) {
        let m = 48;
        let mut columns: Vec<Vec<f64>> = vec![vec![3.5; m]];
        for v in 1..24usize {
            columns.push(
                (0..m)
                    .map(|i| {
                        let t = i as f64 * 0.21;
                        t.sin() * (1.0 + v as f64 * 0.1) + v as f64 + (i as f64 * 0.77).cos() * 0.01
                    })
                    .collect(),
            );
        }
        let data = DataMatrix::from_series(columns);
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        (data, affine)
    }

    fn has_nan(filter: Filter) -> bool {
        match filter {
            Filter::Threshold { tau, .. } => tau.is_nan(),
            Filter::Range { lo, hi } => lo.is_nan() || hi.is_nan(),
        }
    }

    /// Every filter of `taus` × both directions plus `ranges`.
    fn filters(taus: &[f64], ranges: &[(f64, f64)]) -> Vec<Filter> {
        let mut out = Vec::new();
        for &tau in taus {
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                out.push(Filter::Threshold { op, tau });
            }
        }
        out.extend(ranges.iter().map(|&(lo, hi)| Filter::Range { lo, hi }));
        out
    }

    #[test]
    fn count_queries_match_materialized_results() {
        const NAN: f64 = f64::NAN;
        const INF: f64 = f64::INFINITY;
        let pair_filters = filters(
            &[-0.9, -0.1, 0.0, 0.3, 0.8, 5.0, NAN, INF, -INF],
            &[
                (-1.0, 1.0),
                (0.0, 0.5),
                (0.29, 0.31),
                (-5.0, 20.0),
                (NAN, 1.0),
                (-1.0, NAN),
                (-INF, INF),
                (0.3, 0.3),
                (INF, INF),
            ],
        );
        let series_filters = filters(
            &[-100.0, 0.0, 20.0, 100.0, NAN, INF, -INF],
            &[(0.0, 50.0), (NAN, 50.0), (-INF, INF), (20.0, 20.0)],
        );
        for (data, affine) in [fixture(18, 48), constant_series_fixture()] {
            let idx = ScapeIndex::build(&data, &affine, &Measure::EXTENDED).unwrap();
            for measure in [
                PairwiseMeasure::Covariance,
                PairwiseMeasure::DotProduct,
                PairwiseMeasure::Correlation,
                PairwiseMeasure::Cosine,
                PairwiseMeasure::Dice,
            ] {
                for &filter in &pair_filters {
                    let flat = idx.search_pairs(measure, filter, &|| false).unwrap();
                    let what = format!("{} {filter:?}", measure.name());
                    assert_eq!(
                        idx.count_pairs(measure, filter).unwrap(),
                        flat.len(),
                        "{what}"
                    );
                    let grouped: Vec<SequencePair> = idx
                        .search_pairs_grouped(measure, filter, &|| false)
                        .unwrap()
                        .into_iter()
                        .flat_map(|(_, chunk)| chunk)
                        .collect();
                    assert_eq!(grouped, flat, "{what}");
                    assert!(!has_nan(filter) || flat.is_empty(), "{what}");
                }
            }
            for measure in LocationMeasure::ALL {
                for &filter in &series_filters {
                    let flat = idx.search_series(measure, filter).unwrap();
                    let what = format!("{} {filter:?}", measure.name());
                    assert_eq!(
                        idx.count_series(measure, filter).unwrap(),
                        flat.len(),
                        "{what}"
                    );
                    let keyed: Vec<SeriesId> = idx
                        .search_series_keyed(measure, filter)
                        .unwrap()
                        .into_iter()
                        .flatten()
                        .map(|(_, v)| v)
                        .collect();
                    assert_eq!(keyed, flat, "{what}");
                    assert!(!has_nan(filter) || flat.is_empty(), "{what}");
                }
            }
            assert!(matches!(
                idx.count_range_pairs(PairwiseMeasure::Covariance, 1.0, -1.0),
                Err(ScapeError::EmptyRange)
            ));
        }
    }

    /// Zero-α pivots (constant common series ⇒ covariance α = 0) store
    /// ξ = 0 for *every* member pair — exactly the duplicate-run shape
    /// that broke `bulk_build`. Bulk- and insert-built indexes must
    /// agree with each other and the oracle, and counts must match.
    #[test]
    fn zero_alpha_duplicate_projections_survive_bulk_build() {
        let (data, affine) = constant_series_fixture();
        let bulk = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let ins = ScapeIndex::build_insert(&data, &affine, &Measure::ALL).unwrap();
        // At least one covariance pivot must be degenerate for the test
        // to bite.
        assert!(
            bulk.cov
                .as_ref()
                .unwrap()
                .iter()
                .any(|n| n.alpha_norm == 0.0 && n.tree.len() > 1),
            "expected a zero-alpha pivot with a duplicate xi run"
        );
        let oracle = Oracle::new(&data, &affine);
        for tau in [-1.0, -0.01, 0.0, 0.01, 1.0] {
            for op in [ThresholdOp::Greater, ThresholdOp::Less] {
                let got_bulk = sorted(
                    bulk.threshold_pairs(PairwiseMeasure::Covariance, op, tau)
                        .unwrap(),
                );
                let got_ins = sorted(
                    ins.threshold_pairs(PairwiseMeasure::Covariance, op, tau)
                        .unwrap(),
                );
                let want = sorted(oracle.pairs_threshold(PairwiseMeasure::Covariance, op, tau));
                assert_eq!(got_bulk, want, "bulk tau {tau} {op:?}");
                assert_eq!(got_ins, want, "insert tau {tau} {op:?}");
                assert_eq!(
                    bulk.count_threshold_pairs(PairwiseMeasure::Covariance, op, tau)
                        .unwrap(),
                    want.len()
                );
            }
        }
    }

    #[test]
    fn cancellation_aborts_between_pivots() {
        let (data, affine) = fixture(10, 24);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        assert_eq!(
            idx.search_pairs(
                PairwiseMeasure::Correlation,
                Filter::Threshold {
                    op: ThresholdOp::Greater,
                    tau: 0.0
                },
                &|| true
            ),
            Err(ScapeError::Cancelled)
        );
        assert_eq!(
            idx.search_pairs(
                PairwiseMeasure::Covariance,
                Filter::Range { lo: -1.0, hi: 1.0 },
                &|| true
            ),
            Err(ScapeError::Cancelled)
        );
        // A never-firing callback is answer-preserving.
        let a = idx
            .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, 0.5)
            .unwrap();
        let b = idx
            .search_pairs(
                PairwiseMeasure::Correlation,
                Filter::Threshold {
                    op: ThresholdOp::Greater,
                    tau: 0.5,
                },
                &|| false,
            )
            .unwrap();
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn extreme_thresholds_return_all_or_nothing() {
        let (data, affine) = fixture(10, 24);
        let idx = ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let all = idx
            .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, -2.0)
            .unwrap();
        assert_eq!(all.len(), data.pair_count());
        let none = idx
            .threshold_pairs(PairwiseMeasure::Correlation, ThresholdOp::Greater, 2.0)
            .unwrap();
        assert!(none.is_empty());
    }
}
