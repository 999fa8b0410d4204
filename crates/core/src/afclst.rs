//! AFCLST — the affine clustering algorithm (paper Alg. 1).
//!
//! Clusters the `n` series of the data matrix into `k` clusters such that
//! each series is well approximated by a *linear* multiple of its cluster
//! centre. Together with a shared common series, this makes the LSFD
//! between a sequence pair matrix and its pivot pair matrix small
//! (paper Fig. 4): the orthogonal projection error onto the 2-D hyperplane
//! spanned by `s_u` and `r_ω(v)` is at most the projection error onto the
//! centre alone.
//!
//! * **Assignment step**: series `s` joins the cluster whose unit centre
//!   `r` minimizes `‖(r rᵀ)s − s‖` — computed as
//!   `√(‖s‖² − (rᵀs)²)` without materializing the projection.
//! * **Update step**: each centre becomes the dominant left singular
//!   vector of the matrix of its members (`SVDLV` in the paper), computed
//!   by power iteration through matrix-vector products only.
//! * **Termination**: when an assignment pass changes at most `δ_min`
//!   memberships, or after `γ_max` iterations. (The paper's Alg. 1 tests
//!   `|nChg − currNChg| ≤ δ_min` between successive iterations; we use the
//!   simpler absolute criterion, which is what the successive-difference
//!   test converges to and is standard for k-means-style loops.)
//!
//! Empty clusters are re-seeded from a random series, so the model always
//! returns exactly `k` usable centres.
//!
//! ## Streaming
//!
//! [`afclst`] is generic over [`SeriesSource`], so it runs identically
//! over a resident [`DataMatrix`](affinity_data::DataMatrix) (fetches
//! are zero-copy borrows) and an out-of-core store. Every phase is a
//! sequential **pass over columns, each column fetched once per pass**:
//! the marginal statistics (`‖s‖²`) are computed during the *first*
//! assignment sweep (the two passes share one column scan, so a cold
//! column is touched one fewer time per build), each further assignment
//! sweep is its own pass, and — the restructured part — the centre
//! update, where all clusters advance their power iterations
//! *together*: one pass accumulates
//! `w_ℓ = Σ_{v∈ℓ} (s_vᵀ u_ℓ) s_v` for every still-unconverged cluster,
//! instead of iterating each cluster's members separately. Per cluster
//! the accumulation order (ascending `v`) and the per-step arithmetic
//! are unchanged, so the result is **bit-for-bit identical** to the
//! resident per-cluster formulation — and the working set is the `k`
//! centre/iterate vectors plus one column buffer, never the matrix.
//!
//! Because each pass knows its column sequence up front, it *announces*
//! it to the source ([`SeriesSource::prefetch`], a sliding window ahead
//! of the scan): a caching source reads the next announced columns in
//! the same request as a miss, while resident sources ignore the hint
//! entirely.

// Index-based loops over matrix coordinates are the clearest notation
// for these kernels.
#![allow(clippy::needless_range_loop)]
use crate::error::CoreError;
use affinity_data::source::{prefetch_window, scan_sequence};
use affinity_data::SeriesSource;
use affinity_linalg::vector;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the AFCLST algorithm. Paper defaults (Sec. 6.2):
/// `k = 6`, `γ_max = 10`, `δ_min = 10`.
#[derive(Debug, Clone)]
pub struct AfclstParams {
    /// Number of clusters `k`.
    pub k: usize,
    /// Maximum iterations `γ_max`.
    pub gamma_max: usize,
    /// Convergence threshold `δ_min` on membership changes.
    pub delta_min: usize,
    /// RNG seed for centre initialization and re-seeding.
    pub seed: u64,
}

impl Default for AfclstParams {
    fn default() -> Self {
        AfclstParams {
            k: 6,
            gamma_max: 10,
            delta_min: 10,
            seed: 0x00AF_C157,
        }
    }
}

/// The output of AFCLST: unit-norm cluster centres `r_ℓ` and the cluster
/// assignment function `ω(v)`.
#[derive(Debug, Clone)]
pub struct ClusterModel {
    centers: Vec<Vec<f64>>,
    assignment: Vec<usize>,
    iterations: usize,
    converged: bool,
}

impl ClusterModel {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centers.len()
    }

    /// The cluster assignment `ω(v)`.
    ///
    /// # Panics
    /// Panics if `v` is out of range.
    #[inline]
    pub fn cluster_of(&self, v: usize) -> usize {
        self.assignment[v]
    }

    /// Unit-norm centre `r_ℓ`.
    ///
    /// # Panics
    /// Panics if `l >= k`.
    #[inline]
    pub fn center(&self, l: usize) -> &[f64] {
        &self.centers[l]
    }

    /// All assignments (`n` entries).
    pub fn assignments(&self) -> &[usize] {
        &self.assignment
    }

    /// Member series of cluster `l`.
    pub fn members(&self, l: usize) -> Vec<usize> {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(v, &c)| (c == l).then_some(v))
            .collect()
    }

    /// Iterations the algorithm ran for.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the δ_min criterion fired before γ_max was exhausted.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Reassemble a [`ClusterModel`] from decoded parts (the
    /// persistence codec's constructor).
    pub(crate) fn from_parts(
        centers: Vec<Vec<f64>>,
        assignment: Vec<usize>,
        iterations: usize,
        converged: bool,
    ) -> ClusterModel {
        ClusterModel {
            centers,
            assignment,
            iterations,
            converged,
        }
    }

    /// Mean orthogonal projection error of every series onto its centre —
    /// the quantity AFCLST descends on; useful to compare `k` choices.
    /// One streamed pass over the columns.
    ///
    /// # Errors
    /// Propagates fetch failures from the source.
    pub fn mean_projection_error<S: SeriesSource + ?Sized>(
        &self,
        source: &S,
    ) -> Result<f64, CoreError> {
        let n = source.series_count();
        let scan = scan_sequence(n);
        let mut buf = Vec::new();
        let mut total = 0.0;
        for v in 0..n {
            prefetch_window(source, &scan, v);
            let s = source.read_into(v, &mut buf)?;
            total += projection_error(s, vector::dot(s, s), &self.centers[self.assignment[v]]);
        }
        Ok(total / n as f64)
    }
}

/// `‖(r rᵀ)s − s‖ = √(‖s‖² − (rᵀs)²)` for a unit centre `r`.
#[inline]
fn projection_error(s: &[f64], s_norm_sq: f64, r: &[f64]) -> f64 {
    let c = vector::dot(r, s);
    (s_norm_sq - c * c).max(0.0).sqrt()
}

/// Index of the centre minimizing the projection error of `s`.
#[inline]
fn best_center(s: &[f64], s_norm_sq: f64, centers: &[Vec<f64>]) -> usize {
    let mut best = 0;
    let mut best_err = f64::INFINITY;
    for (l, r) in centers.iter().enumerate() {
        let e = projection_error(s, s_norm_sq, r);
        if e < best_err {
            best_err = e;
            best = l;
        }
    }
    best
}

/// Fetch series `v` and return it normalized (the arbitrary `e₀`
/// direction for an all-zero column) — shared by centre initialization,
/// empty-cluster re-seeding, and singleton clusters.
fn normalized_column<S: SeriesSource + ?Sized>(
    source: &S,
    v: usize,
    buf: &mut Vec<f64>,
) -> Result<Vec<f64>, CoreError> {
    let s = source.read_into(v, buf)?;
    let mut c = s.to_vec();
    if vector::exactly_zero(vector::normalize(&mut c)) {
        c[0] = 1.0; // constant-zero series: arbitrary direction
    }
    Ok(c)
}

/// The update phase (`SVDLV`): every cluster's centre becomes the
/// dominant left singular vector of its member matrix, by power
/// iteration. All multi-member clusters iterate **together**: each power
/// step is one sequential pass over the columns, accumulating
/// `w_ℓ = Σ_{v∈ℓ} (s_vᵀ u_ℓ) s_v` for every still-active cluster.
/// Per cluster this performs the exact floating-point sequence of the
/// classical per-cluster loop (members visited in ascending `v`,
/// identical normalize/convergence arithmetic, per-cluster iteration
/// counts preserved), so the restructure is invisible in the output —
/// it only changes the access pattern from per-cluster random access to
/// shared sequential passes, which is what an out-of-core source needs.
///
/// RNG draws happen in cluster order during setup (re-seeds and initial
/// iterates), matching the per-cluster formulation whenever no
/// degenerate re-randomization occurs (re-randomizing is only hit when
/// every member is exactly orthogonal to the iterate).
fn update_centers<S: SeriesSource + ?Sized>(
    source: &S,
    centers: &mut [Vec<f64>],
    assignment: &[usize],
    n: usize,
    m: usize,
    rng: &mut StdRng,
    buf: &mut Vec<f64>,
) -> Result<(), CoreError> {
    let k = centers.len();
    let mut counts = vec![0usize; k];
    for &l in assignment {
        counts[l] += 1;
    }
    let mut active = vec![false; k];
    let mut iterates: Vec<Vec<f64>> = vec![Vec::new(); k];
    for l in 0..k {
        match counts[l] {
            0 => {
                // Re-seed an empty cluster from a random series.
                let v = rng.gen_range(0..n);
                centers[l] = normalized_column(source, v, buf)?;
            }
            1 => {
                let v = assignment
                    .iter()
                    .position(|&c| c == l)
                    .expect("count says one member");
                centers[l] = normalized_column(source, v, buf)?;
            }
            _ => {
                let mut u: Vec<f64> = (0..m).map(|_| rng.gen_range(-0.5..0.5)).collect();
                if vector::exactly_zero(vector::normalize(&mut u)) {
                    u[0] = 1.0;
                }
                iterates[l] = u;
                active[l] = true;
            }
        }
    }
    if !active.iter().any(|&a| a) {
        return Ok(());
    }

    const MAX_IT: usize = 60;
    const TOL: f64 = 1e-9;
    let mut accums: Vec<Vec<f64>> = (0..k)
        .map(|l| if active[l] { vec![0.0; m] } else { Vec::new() })
        .collect();
    for _step in 0..MAX_IT {
        for l in 0..k {
            if active[l] {
                accums[l].iter_mut().for_each(|x| *x = 0.0);
            }
        }
        // One pass over the columns: every active cluster advances one
        // power step. The pass's exact column sequence (members of
        // still-active clusters, ascending) is known up front, so it is
        // announced to the source a sliding window ahead.
        let seq: Vec<u32> = (0..n)
            .filter(|&v| active[assignment[v]])
            .map(|v| v as u32)
            .collect();
        for (pos, &v32) in seq.iter().enumerate() {
            let v = v32 as usize;
            let l = assignment[v];
            prefetch_window(source, &seq, pos);
            let s = source.read_into(v, buf)?;
            let c = vector::dot(s, &iterates[l]);
            if !vector::exactly_zero(c) {
                vector::axpy(c, s, &mut accums[l]);
            }
        }
        let mut any_active = false;
        for l in 0..k {
            if !active[l] {
                continue;
            }
            let w = &mut accums[l];
            if vector::exactly_zero(vector::normalize(w)) {
                // All members orthogonal to the iterate; re-randomize.
                iterates[l] = (0..m).map(|_| rng.gen_range(-0.5..0.5)).collect();
                vector::normalize(&mut iterates[l]);
                any_active = true;
                continue;
            }
            let cos = vector::dot(w, &iterates[l]).abs().min(1.0);
            std::mem::swap(&mut iterates[l], w);
            if (1.0 - cos * cos).sqrt() < TOL {
                active[l] = false;
            } else {
                any_active = true;
            }
        }
        if !any_active {
            break;
        }
    }
    for l in 0..k {
        if !iterates[l].is_empty() {
            centers[l] = std::mem::take(&mut iterates[l]);
        }
    }
    Ok(())
}

/// Run AFCLST over any column source — a resident
/// [`DataMatrix`](affinity_data::DataMatrix), an on-disk
/// `MatrixStore`, or a bounded-memory cache. The result is bit-for-bit
/// independent of the source backing (see the module docs).
///
/// # Errors
/// * [`CoreError::TooManyClusters`] if `k > n`;
/// * [`CoreError::InvalidParameter`] if `k == 0` or `γ_max == 0`;
/// * [`CoreError::Source`] if a column fetch fails.
pub fn afclst<S: SeriesSource + ?Sized>(
    source: &S,
    params: &AfclstParams,
) -> Result<ClusterModel, CoreError> {
    let n = source.series_count();
    let m = source.samples();
    if params.k == 0 {
        return Err(CoreError::InvalidParameter("k must be >= 1".into()));
    }
    if params.gamma_max == 0 {
        return Err(CoreError::InvalidParameter("gamma_max must be >= 1".into()));
    }
    if params.k > n {
        return Err(CoreError::TooManyClusters {
            requested: params.k,
            available: n,
        });
    }
    let k = params.k;
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut buf = Vec::new();

    // Initialization: k distinct random columns, normalized (Alg. 1
    // lines 1–3; distinctness avoids immediately-duplicate centres).
    let mut picks: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        picks.swap(i, j);
    }
    let init_seq: Vec<u32> = picks[..k].iter().map(|&v| v as u32).collect();
    source.prefetch(&init_seq);
    let mut centers: Vec<Vec<f64>> = Vec::with_capacity(k);
    for i in 0..k {
        centers.push(normalized_column(source, picks[i], &mut buf)?);
    }

    // Marginal statistics (‖s_v‖²) are filled during the *first*
    // assignment sweep below — the two passes share one column scan, so
    // a cold out-of-core column is touched once, not twice. The fused
    // form performs the exact per-column arithmetic of the separate
    // passes (each dot product depends only on its own column), so the
    // output is unchanged.
    let mut norms_sq: Vec<f64> = Vec::with_capacity(n);
    let scan = scan_sequence(n);

    let mut assignment = vec![usize::MAX; n];
    let mut iterations = 0;
    let mut converged = false;

    for _iter in 0..params.gamma_max {
        iterations += 1;
        // Assignment phase: one pass, each column fetched once (the
        // first doubles as the marginal-statistics pass).
        let mut changes = 0;
        for v in 0..n {
            prefetch_window(source, &scan, v);
            let s = source.read_into(v, &mut buf)?;
            if norms_sq.len() <= v {
                norms_sq.push(vector::dot(s, s));
            }
            let best = best_center(s, norms_sq[v], &centers);
            if assignment[v] != best {
                assignment[v] = best;
                changes += 1;
            }
        }
        if changes <= params.delta_min {
            converged = true;
            break;
        }
        update_centers(source, &mut centers, &assignment, n, m, &mut rng, &mut buf)?;
    }

    // Make the returned assignment consistent with the returned centres
    // (one final pass).
    for v in 0..n {
        prefetch_window(source, &scan, v);
        let s = source.read_into(v, &mut buf)?;
        assignment[v] = best_center(s, norms_sq[v], &centers);
    }

    Ok(ClusterModel {
        centers,
        assignment,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_data::DataMatrix;

    /// Two planted linear clusters: multiples of two orthogonal-ish bases.
    fn planted(n_per: usize, m: usize) -> DataMatrix {
        let base1: Vec<f64> = (0..m).map(|i| (i as f64 * 0.3).sin()).collect();
        let base2: Vec<f64> = (0..m).map(|i| (i as f64 * 0.05).cos() + 0.2).collect();
        let mut cols = Vec::new();
        for j in 0..n_per {
            let g = 1.0 + j as f64 * 0.3;
            cols.push(base1.iter().map(|v| g * v).collect());
        }
        for j in 0..n_per {
            let g = 0.5 + j as f64 * 0.2;
            cols.push(base2.iter().map(|v| g * v).collect());
        }
        DataMatrix::from_series(cols)
    }

    #[test]
    fn recovers_planted_clusters() {
        let data = planted(8, 64);
        let model = afclst(
            &data,
            &AfclstParams {
                k: 2,
                gamma_max: 20,
                delta_min: 0,
                seed: 3,
            },
        )
        .unwrap();
        // All of the first 8 series share a cluster, all of the last 8
        // share the other.
        let c0 = model.cluster_of(0);
        let c1 = model.cluster_of(8);
        assert_ne!(c0, c1);
        for v in 0..8 {
            assert_eq!(model.cluster_of(v), c0, "series {v}");
        }
        for v in 8..16 {
            assert_eq!(model.cluster_of(v), c1, "series {v}");
        }
        // Centres are unit norm.
        for l in 0..2 {
            assert!((vector::norm(model.center(l)) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn projection_error_decreases_with_more_clusters() {
        let data = affinity_data::generator::sensor_dataset(
            &affinity_data::generator::SensorConfig::reduced(40, 96),
        );
        let err_k2 = afclst(
            &data,
            &AfclstParams {
                k: 2,
                gamma_max: 15,
                delta_min: 0,
                seed: 1,
            },
        )
        .unwrap()
        .mean_projection_error(&data)
        .unwrap();
        let err_k8 = afclst(
            &data,
            &AfclstParams {
                k: 8,
                gamma_max: 15,
                delta_min: 0,
                seed: 1,
            },
        )
        .unwrap()
        .mean_projection_error(&data)
        .unwrap();
        assert!(
            err_k8 <= err_k2 * 1.05,
            "k=8 error {err_k8} not better than k=2 error {err_k2}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let data = planted(5, 32);
        let p = AfclstParams {
            k: 3,
            gamma_max: 10,
            delta_min: 0,
            seed: 9,
        };
        let a = afclst(&data, &p).unwrap();
        let b = afclst(&data, &p).unwrap();
        assert_eq!(a.assignments(), b.assignments());
        for l in 0..3 {
            assert_eq!(a.center(l), b.center(l));
        }
    }

    #[test]
    fn members_partition_the_series() {
        let data = planted(6, 48);
        let model = afclst(&data, &AfclstParams::default().clone_with_k(3)).unwrap();
        let mut seen = vec![false; data.series_count()];
        for l in 0..model.k() {
            for v in model.members(l) {
                assert!(!seen[v], "series {v} in two clusters");
                seen[v] = true;
                assert_eq!(model.cluster_of(v), l);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn parameter_validation() {
        let data = planted(2, 16);
        assert!(matches!(
            afclst(
                &data,
                &AfclstParams {
                    k: 0,
                    ..Default::default()
                }
            ),
            Err(CoreError::InvalidParameter(_))
        ));
        assert!(matches!(
            afclst(
                &data,
                &AfclstParams {
                    gamma_max: 0,
                    ..Default::default()
                }
            ),
            Err(CoreError::InvalidParameter(_))
        ));
        assert!(matches!(
            afclst(
                &data,
                &AfclstParams {
                    k: 100,
                    ..Default::default()
                }
            ),
            Err(CoreError::TooManyClusters { .. })
        ));
    }

    #[test]
    fn k_equals_n_is_fine() {
        let data = planted(2, 16); // n = 4
        let model = afclst(
            &data,
            &AfclstParams {
                k: 4,
                gamma_max: 5,
                delta_min: 0,
                seed: 2,
            },
        )
        .unwrap();
        assert_eq!(model.k(), 4);
    }

    #[test]
    fn single_cluster_centers_on_dominant_direction() {
        let data = planted(6, 40);
        let model = afclst(
            &data,
            &AfclstParams {
                k: 1,
                gamma_max: 10,
                delta_min: 0,
                seed: 5,
            },
        )
        .unwrap();
        assert!(model.members(0).len() == data.series_count());
        assert!((vector::norm(model.center(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn convergence_flag_and_iterations() {
        let data = planted(8, 64);
        let model = afclst(
            &data,
            &AfclstParams {
                k: 2,
                gamma_max: 50,
                delta_min: 0,
                seed: 3,
            },
        )
        .unwrap();
        assert!(model.converged());
        assert!(model.iterations() < 50);
    }

    #[test]
    fn constant_series_are_tolerated() {
        let mut cols = vec![vec![0.0; 20], vec![5.0; 20]];
        cols.push((0..20).map(|i| (i as f64 * 0.4).sin()).collect());
        cols.push((0..20).map(|i| (i as f64 * 0.4).sin() * 2.0).collect());
        let data = DataMatrix::from_series(cols);
        let model = afclst(
            &data,
            &AfclstParams {
                k: 2,
                gamma_max: 10,
                delta_min: 0,
                seed: 8,
            },
        )
        .unwrap();
        assert_eq!(model.assignments().len(), 4);
    }

    impl AfclstParams {
        fn clone_with_k(&self, k: usize) -> AfclstParams {
            AfclstParams {
                k,
                gamma_max: 15,
                delta_min: 0,
                ..*self
            }
        }
    }
}
