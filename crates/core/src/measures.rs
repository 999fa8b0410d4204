//! Statistical measures and their exact ("from scratch") computation —
//! the paper's measure taxonomy (Sec. 2.1) and its `W_N` baseline.
//!
//! * **L-measures** (location, per series): mean, median, mode;
//! * **T-measures** (dispersion, per pair): covariance, dot product;
//! * **D-measures** (derived, per pair): Pearson correlation (covariance
//!   normalized by `√(Σ(s_u)·Σ(s_v))`).
//!
//! The mode of a continuous series is not defined in the paper; we use the
//! argmax of a Gaussian kernel density estimate evaluated at the sample
//! points — an exact continuous-mode estimator.
//! [`mode`] finds that argmax by bound-and-verify: the same bits as the
//! `O(m²)` all-samples loop for the cost of a sort, cheap per-sample
//! bounds and a few `O(m)` density sums. The `W_N` mode baseline
//! ([`location_all`], per series) and `W_A` (per cluster centre) both run
//! it, so `W_A`'s mode speedup is about `n/k`, not the paper's ~3500×.

use affinity_data::DataMatrix;
use affinity_linalg::vector;
use std::collections::BinaryHeap;

/// Location measures (per single series).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocationMeasure {
    /// Arithmetic mean.
    Mean,
    /// Median (average of the two central order statistics for even `m`).
    Median,
    /// Mode via Gaussian KDE (see module docs).
    Mode,
}

impl LocationMeasure {
    /// All location measures, in paper order.
    pub const ALL: [LocationMeasure; 3] = [
        LocationMeasure::Mean,
        LocationMeasure::Median,
        LocationMeasure::Mode,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            LocationMeasure::Mean => "mean",
            LocationMeasure::Median => "median",
            LocationMeasure::Mode => "mode",
        }
    }
}

/// Pairwise measures: the T-measures plus the D-measures.
///
/// The paper's evaluation uses covariance, dot product and correlation;
/// Sec. 2.1 notes the approach extends to "a large number of other
/// derived measures that are derived by normalizing the dot product",
/// naming cosine similarity and the Dice coefficient — both implemented
/// here end to end (MEC + SCAPE) with separable normalizers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PairwiseMeasure {
    /// Population covariance (T-measure).
    Covariance,
    /// Raw dot product `Σᵢ xᵢyᵢ` (T-measure).
    DotProduct,
    /// Pearson correlation coefficient (D-measure; covariance normalized
    /// by `√(Σ(s_u)·Σ(s_v))`).
    Correlation,
    /// Cosine similarity (D-measure; dot product normalized by
    /// `√(Π₁₁·Π₂₂)` — extension, paper Sec. 2.1).
    Cosine,
    /// Dice coefficient `2·Π₁₂/(Π₁₁+Π₂₂)` (D-measure; dot product
    /// normalized by `(Π₁₁+Π₂₂)/2` — extension, paper Sec. 2.1).
    Dice,
}

impl PairwiseMeasure {
    /// The pairwise measures of the paper's evaluation, in paper order.
    pub const ALL: [PairwiseMeasure; 3] = [
        PairwiseMeasure::Covariance,
        PairwiseMeasure::DotProduct,
        PairwiseMeasure::Correlation,
    ];

    /// Paper measures plus the dot-product-derived extensions.
    pub const EXTENDED: [PairwiseMeasure; 5] = [
        PairwiseMeasure::Covariance,
        PairwiseMeasure::DotProduct,
        PairwiseMeasure::Correlation,
        PairwiseMeasure::Cosine,
        PairwiseMeasure::Dice,
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            PairwiseMeasure::Covariance => "covariance",
            PairwiseMeasure::DotProduct => "dot product",
            PairwiseMeasure::Correlation => "correlation",
            PairwiseMeasure::Cosine => "cosine",
            PairwiseMeasure::Dice => "dice",
        }
    }

    /// `true` for derived (D-) measures, which need a normalizer.
    pub fn is_derived(&self) -> bool {
        matches!(
            self,
            PairwiseMeasure::Correlation | PairwiseMeasure::Cosine | PairwiseMeasure::Dice
        )
    }
}

/// Any measure the framework supports; used by workload generators and the
/// SCAPE index to treat all six uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Measure {
    /// A location measure.
    Location(LocationMeasure),
    /// A pairwise (dispersion or derived) measure.
    Pairwise(PairwiseMeasure),
}

impl Measure {
    /// All six measures of the paper's evaluation.
    pub const ALL: [Measure; 6] = [
        Measure::Location(LocationMeasure::Mean),
        Measure::Location(LocationMeasure::Median),
        Measure::Location(LocationMeasure::Mode),
        Measure::Pairwise(PairwiseMeasure::Covariance),
        Measure::Pairwise(PairwiseMeasure::DotProduct),
        Measure::Pairwise(PairwiseMeasure::Correlation),
    ];

    /// Paper measures plus the dot-product-derived extensions
    /// (cosine similarity, Dice coefficient).
    pub const EXTENDED: [Measure; 8] = [
        Measure::Location(LocationMeasure::Mean),
        Measure::Location(LocationMeasure::Median),
        Measure::Location(LocationMeasure::Mode),
        Measure::Pairwise(PairwiseMeasure::Covariance),
        Measure::Pairwise(PairwiseMeasure::DotProduct),
        Measure::Pairwise(PairwiseMeasure::Correlation),
        Measure::Pairwise(PairwiseMeasure::Cosine),
        Measure::Pairwise(PairwiseMeasure::Dice),
    ];

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Measure::Location(l) => l.name(),
            Measure::Pairwise(p) => p.name(),
        }
    }
}

/// Exact mean.
pub fn mean(x: &[f64]) -> f64 {
    vector::mean(x)
}

/// Exact median: sorts a copy (`O(m log m)`); even lengths average the two
/// central values.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "median of empty series");
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("median: NaN in series"));
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        0.5 * (v[m / 2 - 1] + v[m / 2])
    }
}

/// Exact continuous mode: argmax over the sample points of a Gaussian KDE
/// with Silverman bandwidth `h`, ties to the smallest index.
///
/// The result has the same bits as evaluating every sample's density in
/// index order (the `O(m²)` loop), but only samples that can still be the
/// argmax are evaluated. The values are sorted and cut into blocks of 64;
/// each block gets an upper bound on the density of its samples, and each
/// sample `q` an upper bound `U(q)` (per block, the smaller of an interval
/// bound and a second-order Taylor bound). Starting from the exact density
/// of the most crowded sample, a best-first search expands blocks and
/// evaluates samples in descending bound, and stops once `bound·(1 +
/// 10⁻⁶)` is below the best density found: the slack covers rounding, so
/// no skipped sample can reach or tie the best. Every evaluated density is
/// the unchanged `O(m)` sum over `x` in its original order, so it has the
/// loop's bits, and equal-bit samples are evaluated once.
///
/// Cost: `O(m log m)` to sort, `O(m/64)` per bounded sample and `O(m)`
/// per evaluated one. Typically a few thousand samples are bounded and
/// tens evaluated: at m = 12 000 on one core of a 2-vCPU x86-64 VM that
/// is 30–110× less time than the loop on random walks, Gaussian and
/// bimodal data, ~20× on uniform data and ~1 000× on discrete data.
///
/// Non-finite input, or a bandwidth whose `1/(2h²)` is not finite and
/// positive, evaluates every sample in index order (the quadratic loop),
/// so NaN, ±∞ and underflowing spreads behave exactly as that loop does.
/// A constant series returns its value directly.
///
/// # Panics
/// Panics on an empty slice.
pub fn mode(x: &[f64]) -> f64 {
    assert!(!x.is_empty(), "mode of empty series");
    let m = x.len();
    if m == 1 {
        return x[0];
    }
    let sigma = vector::variance(x).sqrt();
    if vector::exactly_zero(sigma) {
        return x[0];
    }
    let (h, inv2h2) = silverman(sigma, m);
    if inv2h2.is_finite() && inv2h2 > 0.0 && x.iter().all(|v| v.is_finite()) {
        return x[kde_argmax(x, h, inv2h2)];
    }
    let mut best_val = f64::NEG_INFINITY;
    let mut best_x = x[0];
    for &xi in x {
        let dens = kde_density(x, xi, inv2h2);
        if dens > best_val {
            best_val = dens;
            best_x = xi;
        }
    }
    best_x
}

/// Silverman's rule-of-thumb bandwidth `h` for `m` samples of standard
/// deviation `sigma`, and the kernel's `1/(2h²)`.
fn silverman(sigma: f64, m: usize) -> (f64, f64) {
    let h = 1.06 * sigma * (m as f64).powf(-0.2);
    (h, 1.0 / (2.0 * h * h))
}

/// Sorted values per block of [`mode`]'s upper bounds: wider blocks
/// loosen the Taylor bound (more samples evaluated), narrower ones make
/// each `U(q)` cost more.
const MODE_BLOCK: usize = 64;

/// Relative slack on every upper bound in [`mode`]. A kernel term's
/// argument carries ≤ 3 roundings and `exp` one more, so a computed term
/// is within ~3ulp·(1 + arg) of its real value (arg ≤ 745 before it
/// underflows: ≤ 3·10⁻¹³); summing m terms adds ≤ m·2⁻⁵³. The bounds take
/// comparably few roundings on sums whose condition number is below 3.
/// For any m below 10⁹ the total stays under 1.2·10⁻⁷ ≪ 10⁻⁶, so
/// `U·(1 + MODE_SLACK)` is at least every computed density it bounds.
const MODE_SLACK: f64 = 1e-6;

/// Largest scaled half-width `r·√c` for which a block keeps its Taylor
/// bound. Past it the `e^{|a|r}` factor leaves the interval bound the
/// tighter one anyway, and the block weights `e^{−cδ²}` stay far from
/// underflow (`c·r² ≤ 256`).
const TAYLOR_MAX_HALF_WIDTH: f64 = 16.0;

/// Unnormalised Gaussian KDE at `xi`: `Σⱼ e^{−(xi−xⱼ)²·inv2h2}`, summed in
/// the order of `x`.
fn kde_density(x: &[f64], xi: f64, inv2h2: f64) -> f64 {
    let mut dens = 0.0;
    for &xj in x {
        let d = xi - xj;
        dens += (-d * d * inv2h2).exp();
    }
    dens
}

/// Bound-and-verify argmax for finite `x` and finite positive `c =
/// inv2h2`: the smallest index whose [`kde_density`] is the largest.
fn kde_argmax(x: &[f64], h: f64, c: f64) -> usize {
    let m = x.len();
    // Stable: equal bits stay in index order, so a run's first entry is
    // its smallest index, and the run shares one density.
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| x[a].total_cmp(&x[b]));
    let sorted: Vec<f64> = order.iter().map(|&i| x[i]).collect();

    // Threshold: the exact density of the sample with the most neighbours
    // within ±h (the first of a run, so its smallest index).
    let (mut lo, mut hi, mut top, mut top_count) = (0, 0, 0, 0);
    for (p, &v) in sorted.iter().enumerate() {
        while sorted[lo] < v - h {
            lo += 1;
        }
        while hi < m && sorted[hi] <= v + h {
            hi += 1;
        }
        if hi - lo > top_count {
            (top, top_count) = (p, hi - lo);
        }
    }
    let mut best = (kde_density(x, sorted[top], c), order[top]);

    // Best-first over blocks (bounded by `block_bound`) and samples
    // (bounded by `upper_bound`): the largest bound is expanded or
    // evaluated next, until it falls below the best density found. Heap
    // keys are the slackened bounds' bits, clamped at 0: non-negative
    // floats order like their bits.
    let bound = KdeBound::new(&sorted, c);
    let key = |u: f64| (u * (1.0 + MODE_SLACK)).max(0.0).to_bits();
    let mut heap: BinaryHeap<(u64, bool, usize)> = (0..bound.blocks.len())
        .map(|b| (key(bound.block_bound(b)), true, b))
        .collect();
    while let Some((u, is_block, at)) = heap.pop() {
        if f64::from_bits(u) < best.0 {
            break;
        }
        if !is_block {
            let dens = kde_density(x, x[at], c);
            if dens.total_cmp(&best.0).then(best.1.cmp(&at)).is_gt() {
                best = (dens, at);
            }
            continue;
        }
        for p in at * MODE_BLOCK..m.min((at + 1) * MODE_BLOCK) {
            let repeat = p > 0 && sorted[p].to_bits() == sorted[p - 1].to_bits();
            if !repeat && order[p] != best.1 {
                heap.push((key(bound.upper_bound(sorted[p])), false, order[p]));
            }
        }
    }
    best.1
}

/// One block of sorted values: its range, its centre `mu`, and — in units
/// scaled by `√c` — its half-width `r` and the weighted moments `wₖ =
/// Σ e^{−δ²}·δᵏ` of the scaled offsets `δ = (v − mu)·√c`.
struct KdeBlock {
    lo: f64,
    hi: f64,
    count: f64,
    mu: f64,
    r: f64,
    w0: f64,
    w1: f64,
    w2: f64,
}

/// Distance from the range `[lo, hi]` to block `b`'s range; 0 if they
/// overlap. Rounding is monotone, so it is at most every computed `|xi −
/// xj|` between the two ranges.
fn gap(lo: f64, hi: f64, b: &KdeBlock) -> f64 {
    if b.lo > hi {
        b.lo - hi
    } else if b.hi < lo {
        lo - b.hi
    } else {
        0.0
    }
}

/// Upper bounds on [`kde_density`] over blocks of the sorted values.
struct KdeBound {
    c: f64,
    sqrt_c: f64,
    blocks: Vec<KdeBlock>,
}

impl KdeBound {
    fn new(sorted: &[f64], c: f64) -> Self {
        let sqrt_c = c.sqrt();
        let blocks = sorted
            .chunks(MODE_BLOCK)
            .map(|block| {
                let (lo, hi) = (block[0], block[block.len() - 1]);
                let mu = lo + 0.5 * (hi - lo);
                let (mut r, mut w0, mut w1, mut w2) = (0.0f64, 0.0, 0.0, 0.0);
                for &v in block {
                    let d = (v - mu) * sqrt_c;
                    let w = (-d * d).exp();
                    r = r.max(d.abs());
                    w0 += w;
                    w1 += w * d;
                    w2 += w * d * d;
                }
                KdeBlock {
                    lo,
                    hi,
                    count: block.len() as f64,
                    mu,
                    r,
                    w0,
                    w1,
                    w2,
                }
            })
            .collect();
        KdeBound { c, sqrt_c, blocks }
    }

    /// `count` kernel terms at distance at least `gap ≥ 0`. The kernel is
    /// evaluated as [`kde_density`] does and rounding is monotone, so this
    /// bounds the computed terms, overflow and underflow included.
    fn interval(&self, count: f64, gap: f64) -> f64 {
        count * (-gap * gap * self.c).exp()
    }

    /// Upper bound on the density of every sample in block `b`: each
    /// block's count times the kernel at the gap between the two ranges.
    fn block_bound(&self, b: usize) -> f64 {
        let home = &self.blocks[b];
        self.blocks
            .iter()
            .map(|o| self.interval(o.count, gap(home.lo, home.hi, o)))
            .sum()
    }

    /// `U(q)`: per block, the smaller of the interval bound and the Taylor
    /// bound. With `g = (q − mu)·√c` and `a = 2g`, each kernel term is
    /// `e^{−g²}·e^{−δ²}·e^{aδ}`, and `eᵗ ≤ 1 + t + ½t²e^{max(t,0)}` gives
    /// `e^{−g²}(w0 + a·w1) + ½a²·w2·e^{|a|r − g²}`, written with
    /// `|a|r − g² = r² − (|g| − r)²` so no factor overflows on its own.
    fn upper_bound(&self, q: f64) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                let interval = self.interval(b.count, gap(q, q, b));
                if b.r > TAYLOR_MAX_HALF_WIDTH {
                    return interval;
                }
                let g = (q - b.mu) * self.sqrt_c;
                let a = 2.0 * g;
                let spill = b.r * b.r - (g.abs() - b.r) * (g.abs() - b.r);
                let taylor = (-g * g).exp() * (b.w0 + a * b.w1) + 0.5 * a * a * b.w2 * spill.exp();
                if taylor.is_finite() {
                    interval.min(taylor)
                } else {
                    interval
                }
            })
            .sum()
    }
}

/// Dispatch a location measure.
///
/// # Panics
/// Panics on an empty slice (see the individual measures).
pub fn location(measure: LocationMeasure, x: &[f64]) -> f64 {
    match measure {
        LocationMeasure::Mean => mean(x),
        LocationMeasure::Median => median(x),
        LocationMeasure::Mode => mode(x),
    }
}

/// Exact population covariance.
pub fn covariance(x: &[f64], y: &[f64]) -> f64 {
    vector::covariance(x, y)
}

/// Exact dot product.
pub fn dot_product(x: &[f64], y: &[f64]) -> f64 {
    vector::dot(x, y)
}

/// Exact Pearson correlation (0 for constant series).
pub fn correlation(x: &[f64], y: &[f64]) -> f64 {
    vector::correlation(x, y)
}

/// Exact cosine similarity `x·y / (‖x‖·‖y‖)`; 0 if either vector is zero.
pub fn cosine(x: &[f64], y: &[f64]) -> f64 {
    let d = vector::norm(x) * vector::norm(y);
    if d > 0.0 {
        vector::dot(x, y) / d
    } else {
        0.0
    }
}

/// Exact Dice coefficient `2·x·y / (x·x + y·y)`; 0 if both vectors are
/// zero.
pub fn dice(x: &[f64], y: &[f64]) -> f64 {
    let d = vector::dot(x, x) + vector::dot(y, y);
    if d > 0.0 {
        2.0 * vector::dot(x, y) / d
    } else {
        0.0
    }
}

/// Dispatch a pairwise measure.
pub fn pairwise(measure: PairwiseMeasure, x: &[f64], y: &[f64]) -> f64 {
    match measure {
        PairwiseMeasure::Covariance => covariance(x, y),
        PairwiseMeasure::DotProduct => dot_product(x, y),
        PairwiseMeasure::Correlation => correlation(x, y),
        PairwiseMeasure::Cosine => cosine(x, y),
        PairwiseMeasure::Dice => dice(x, y),
    }
}

/// The diagonal ("self") value of a pairwise measure — used when MEC
/// queries fill a full `|ψ|×|ψ|` matrix.
pub fn pairwise_self(measure: PairwiseMeasure, x: &[f64]) -> f64 {
    match measure {
        PairwiseMeasure::Covariance => vector::variance(x),
        PairwiseMeasure::DotProduct => vector::dot(x, x),
        PairwiseMeasure::Correlation | PairwiseMeasure::Cosine | PairwiseMeasure::Dice => 1.0,
    }
}

/// `W_N` over a whole dataset: a location measure for every series.
pub fn location_all(measure: LocationMeasure, data: &DataMatrix) -> Vec<f64> {
    (0..data.series_count())
        .map(|v| location(measure, data.series(v)))
        .collect()
}

/// `W_N` over a whole dataset: a pairwise measure for every sequence pair,
/// in the lexicographic order of [`DataMatrix::sequence_pairs`].
pub fn pairwise_all(measure: PairwiseMeasure, data: &DataMatrix) -> Vec<f64> {
    let n = data.series_count();
    let mut out = Vec::with_capacity(n * (n - 1) / 2);
    match measure {
        PairwiseMeasure::Correlation => {
            // Precompute per-series moments so the naive path is the fair
            // O(n²·m) scan, not an O(n²·3m) one.
            let means: Vec<f64> = (0..n).map(|v| vector::mean(data.series(v))).collect();
            let vars: Vec<f64> = (0..n).map(|v| vector::variance(data.series(v))).collect();
            for u in 0..n {
                for v in u + 1..n {
                    let su = data.series(u);
                    let sv = data.series(v);
                    let mut cov = 0.0;
                    for (a, b) in su.iter().zip(sv.iter()) {
                        cov += (a - means[u]) * (b - means[v]);
                    }
                    cov /= su.len() as f64;
                    let d = (vars[u] * vars[v]).sqrt();
                    out.push(if d > 0.0 { cov / d } else { 0.0 });
                }
            }
        }
        PairwiseMeasure::Cosine | PairwiseMeasure::Dice => {
            // Precompute self dot products so the naive path is the fair
            // O(n²·m) scan.
            let self_dots: Vec<f64> = (0..n)
                .map(|v| {
                    let s = data.series(v);
                    vector::dot(s, s)
                })
                .collect();
            for u in 0..n {
                for v in u + 1..n {
                    let d = vector::dot(data.series(u), data.series(v));
                    let value = match measure {
                        PairwiseMeasure::Cosine => {
                            let norm = (self_dots[u] * self_dots[v]).sqrt();
                            if norm > 0.0 {
                                d / norm
                            } else {
                                0.0
                            }
                        }
                        _ => {
                            let denom = self_dots[u] + self_dots[v];
                            if denom > 0.0 {
                                2.0 * d / denom
                            } else {
                                0.0
                            }
                        }
                    };
                    out.push(value);
                }
            }
        }
        _ => {
            for u in 0..n {
                for v in u + 1..n {
                    out.push(pairwise(measure, data.series(u), data.series(v)));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn median_empty_panics() {
        median(&[]);
    }

    #[test]
    fn mode_finds_densest_region() {
        // Cluster around 5.0 with outliers elsewhere.
        let x = [5.0, 5.1, 4.9, 5.05, 4.95, 1.0, 9.0, 5.0];
        let m = mode(&x);
        assert!((m - 5.0).abs() < 0.2, "mode {m}");
    }

    #[test]
    fn mode_degenerate_cases() {
        assert_eq!(mode(&[2.5]), 2.5);
        assert_eq!(mode(&[3.0, 3.0, 3.0]), 3.0);
        for x in [
            vec![2.5],
            vec![1.0, 2.0],
            vec![2.0, 1.0],
            vec![1.0, 2.0, 2.5],
            vec![3.0, 1.0, 1.0],
            vec![-1.0, 7.0, -1.0],
            vec![3.7; 100],
            vec![-0.0; 5],
        ] {
            assert_mode_bits(&x);
        }
    }

    #[test]
    fn mode_of_bimodal_picks_heavier() {
        let mut x = vec![];
        x.extend(
            std::iter::repeat_n(1.0, 10)
                .enumerate()
                .map(|(i, v)| v + i as f64 * 0.01),
        );
        x.extend(
            std::iter::repeat_n(8.0, 4)
                .enumerate()
                .map(|(i, v)| v + i as f64 * 0.01),
        );
        let m = mode(&x);
        assert!(m < 2.0, "mode {m} should be near the heavier cluster");
    }

    /// Reference `mode` must match bit for bit: every sample's density in
    /// index order (`O(m²)`), first strict maximum wins.
    fn mode_reference(x: &[f64]) -> f64 {
        assert!(!x.is_empty(), "mode of empty series");
        let m = x.len();
        if m == 1 {
            return x[0];
        }
        let sigma = vector::variance(x).sqrt();
        if vector::exactly_zero(sigma) {
            return x[0];
        }
        // Silverman's rule of thumb.
        let h = 1.06 * sigma * (m as f64).powf(-0.2);
        let inv2h2 = 1.0 / (2.0 * h * h);
        let mut best_val = f64::NEG_INFINITY;
        let mut best_x = x[0];
        for &xi in x {
            let mut dens = 0.0;
            for &xj in x {
                let d = xi - xj;
                dens += (-d * d * inv2h2).exp();
            }
            if dens > best_val {
                best_val = dens;
                best_x = xi;
            }
        }
        best_x
    }

    fn assert_mode_bits(x: &[f64]) {
        let (got, want) = (mode(x), mode_reference(x));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "mode {got:e} != reference {want:e} (m = {})",
            x.len()
        );
    }

    fn uniform(seed: u64, m: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m).map(|_| rng.gen_range(lo..hi)).collect()
    }

    fn random_walk(seed: u64, m: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v = 0.0;
        (0..m)
            .map(|_| {
                v += rng.gen_range(-1.0..1.0);
                v
            })
            .collect()
    }

    /// Sum of 12 uniforms: a cheap, deterministic near-Gaussian.
    fn gaussian(rng: &mut StdRng) -> f64 {
        (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0
    }

    fn bimodal(seed: u64, m: usize) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|i| {
                let g = gaussian(&mut rng);
                if i % 3 == 0 {
                    4.0 + 0.5 * g
                } else {
                    g
                }
            })
            .collect()
    }

    /// Finite variance, but `d·d` overflows between the two outliers.
    fn overflowing_gaps() -> Vec<f64> {
        let mut x = uniform(15, 400, -1e150, 1e150);
        x[0] = 9e153;
        x[200] = -9e153;
        x
    }

    #[test]
    fn mode_equal_peaks_go_to_the_first_index() {
        // At m = 4 000 the cross-peak terms (e^{−49}) vanish in the sums,
        // so both peaks have density exactly 2 000.
        let ones_first: Vec<f64> = (0..4000).map(|i| (1 - i % 2) as f64).collect();
        assert_eq!(mode(&ones_first), 1.0);
        assert_mode_bits(&ones_first);
        let zeros_first: Vec<f64> = ones_first.iter().map(|v| 1.0 - v).collect();
        assert_eq!(mode(&zeros_first), 0.0);
        assert_mode_bits(&zeros_first);
        // ±0.0 tie: equal densities, different bits.
        assert_eq!(mode(&[0.0, -0.0, 1.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(mode(&[-0.0, 0.0, 1.0]).to_bits(), (-0.0f64).to_bits());
        assert_mode_bits(&[1.0, -0.0, 0.0, 0.0, -0.0, 5.0]);
    }

    #[test]
    fn mode_bits_with_many_duplicates() {
        for seed in 0..4 {
            let x: Vec<f64> = uniform(seed, 3000, 0.0, 1.0)
                .iter()
                .map(|u| (20.0 * u).floor())
                .collect();
            assert_mode_bits(&x);
            let signed_zeros: Vec<f64> = x
                .iter()
                .map(|v| if *v < 10.0 { -0.0 } else { 0.0 })
                .collect();
            assert_mode_bits(&signed_zeros);
        }
    }

    #[test]
    fn mode_bits_with_non_finite_input() {
        let base = random_walk(7, 200);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 100] {
                let mut x = base.clone();
                x[at] = bad;
                assert_mode_bits(&x);
            }
        }
        assert_mode_bits(&[f64::INFINITY, f64::NEG_INFINITY, 1.0]);
        assert_mode_bits(&[f64::NAN, f64::NAN]);
    }

    #[test]
    fn mode_bits_at_extreme_magnitudes() {
        // Subnormal spreads (h² underflows), spreads where d² underflows
        // to subnormals, and magnitudes where d·d or the variance
        // overflows.
        for scale in [
            5e-324, 1e-320, 1e-160, 1e-154, 1e-150, 1e150, 1e153, 1e154, 5e154, 1e300,
        ] {
            for (seed, x) in [uniform(3, 500, -1.0, 1.0), random_walk(4, 500)]
                .into_iter()
                .enumerate()
            {
                let x: Vec<f64> = x.iter().map(|v| v * scale).collect();
                assert_mode_bits(&x);
                let shifted: Vec<f64> = x.iter().map(|v| v + (seed as f64 + 1.0) * scale).collect();
                assert_mode_bits(&shifted);
            }
        }
        assert_mode_bits(&overflowing_gaps());
        assert_mode_bits(&[f64::MAX, -f64::MAX, 0.0]);
        assert_mode_bits(&[f64::MIN_POSITIVE, 0.0, 5e-324]);
    }

    #[test]
    fn mode_bits_on_long_series() {
        assert_mode_bits(&random_walk(1, 12_000));
        assert_mode_bits(&bimodal(2, 3000));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn mode_bits_match_the_quadratic_loop(
            x in proptest::collection::vec(-1e3f64..1e3, 1..400),
            grid in 0u8..3,
        ) {
            // grid 1 and 2 snap the values to coarse grids (ties, runs).
            let x: Vec<f64> = match grid {
                0 => x,
                1 => x.iter().map(|v| (v / 50.0).round()).collect(),
                _ => x.iter().map(|v| v.round() * 1e-3).collect(),
            };
            let (got, want) = (mode(&x), mode_reference(&x));
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    /// `U(q)·(1 + MODE_SLACK)` and the block bounds must cover every
    /// sample's computed density: a bound that is too tight fails here,
    /// not as a rare argmax miss.
    #[test]
    fn mode_upper_bounds_cover_every_density() {
        let geometric: Vec<f64> = (0..300).map(|i| 1.07f64.powi(i)).collect();
        let clustered: Vec<f64> = (0..600)
            .map(|i| {
                if i % 50 == 0 {
                    1e3 * i as f64
                } else {
                    (i % 7) as f64 * 1e-3
                }
            })
            .collect();
        let mut series = vec![
            random_walk(11, 3000),
            bimodal(12, 2000),
            uniform(13, 1500, 0.0, 1.0)
                .iter()
                .map(|u| (20.0 * u).floor())
                .collect(),
            geometric,
            clustered,
            (0..1000).map(|i| (i as f64).sqrt()).collect(),
        ];
        for scale in [1e-152, 1e150, 1e152] {
            series.push(
                uniform(14, 800, -1.0, 1.0)
                    .iter()
                    .map(|v| v * scale)
                    .collect(),
            );
        }
        series.push(overflowing_gaps());
        for x in series {
            let sigma = vector::variance(&x).sqrt();
            let (_, c) = silverman(sigma, x.len());
            assert!(c.is_finite() && c > 0.0, "c = {c:e}, sigma = {sigma:e}");
            let mut sorted = x.clone();
            sorted.sort_by(f64::total_cmp);
            let bound = KdeBound::new(&sorted, c);
            for (p, &q) in sorted.iter().enumerate() {
                let dens = kde_density(&x, q, c);
                let u = bound.upper_bound(q);
                let block = bound.block_bound(p / MODE_BLOCK);
                assert!(
                    u * (1.0 + MODE_SLACK) >= dens && block * (1.0 + MODE_SLACK) >= dens,
                    "q = {q:e}: U {u:e}, block {block:e} < density {dens:e}"
                );
            }
        }
    }

    #[test]
    fn pairwise_dispatch_matches_direct() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [1.0, 0.0, 2.0, 5.0];
        assert_eq!(
            pairwise(PairwiseMeasure::DotProduct, &x, &y),
            dot_product(&x, &y)
        );
        assert_eq!(
            pairwise(PairwiseMeasure::Covariance, &x, &y),
            covariance(&x, &y)
        );
        assert_eq!(
            pairwise(PairwiseMeasure::Correlation, &x, &y),
            correlation(&x, &y)
        );
    }

    #[test]
    fn pairwise_self_values() {
        let x = [1.0, 2.0, 3.0];
        assert_eq!(pairwise_self(PairwiseMeasure::Correlation, &x), 1.0);
        assert_eq!(pairwise_self(PairwiseMeasure::DotProduct, &x), 14.0);
        assert!((pairwise_self(PairwiseMeasure::Covariance, &x) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn all_constants_cover_six_measures() {
        assert_eq!(Measure::ALL.len(), 6);
        let names: Vec<&str> = Measure::ALL.iter().map(|m| m.name()).collect();
        assert!(names.contains(&"mode"));
        assert!(names.contains(&"correlation"));
        assert!(PairwiseMeasure::Correlation.is_derived());
        assert!(!PairwiseMeasure::Covariance.is_derived());
    }

    #[test]
    fn dataset_wide_naive_matches_per_pair() {
        let data = DataMatrix::from_series(vec![
            vec![1.0, 2.0, 3.0],
            vec![2.0, 2.0, 5.0],
            vec![0.0, -1.0, 1.0],
        ]);
        let all = pairwise_all(PairwiseMeasure::Covariance, &data);
        assert_eq!(all.len(), 3);
        assert!((all[0] - covariance(data.series(0), data.series(1))).abs() < 1e-15);
        assert!((all[2] - covariance(data.series(1), data.series(2))).abs() < 1e-15);
        let locs = location_all(LocationMeasure::Mean, &data);
        assert_eq!(locs, vec![2.0, 3.0, 0.0]);
        let corr_all = pairwise_all(PairwiseMeasure::Correlation, &data);
        assert!((corr_all[0] - correlation(data.series(0), data.series(1))).abs() < 1e-12);
    }
}
