//! Statement execution over a fleet of shard backends.
//!
//! The coordinator plans statements with the one `affinity_ql` planner
//! ([`affinity_ql::plan`]) and supplies only the query primitives: it
//! fans shard-local pieces out over [`ShardBackend`]s and merges with
//! the *same* splice/merge helpers [`affinity_shard::ShardedModel`]
//! uses in process — so a distributed answer is bit-identical to the
//! single-box sharded answer, which the shard oracle proves
//! bit-identical to the monolithic model.
//!
//! Failure semantics (the headline):
//!
//! * a statement that lost shards but is still meaningfully answerable
//!   (MET/MER miss that shard's pairs; MEC location misses that shard's
//!   rows) comes back with [`CoordAnswer::missing`] non-empty — the
//!   front-end renders it `DEGRADED <shards>`, never a silent subset;
//! * a statement that *cannot* be partially answered (a MEC pairwise
//!   matrix with holes is wrong, not partial; an answer with every
//!   shard down is a guess) fails typed `UNAVAILABLE`;
//! * `strict` mode converts every would-be degraded answer into
//!   `UNAVAILABLE` — for clients that prefer failure over partiality.

use crate::backend::{BackendError, ShardBackend};
use crate::proto::{ShardRequest, ShardResponse, MAX_LIST};
use crate::stats::CoordStats;
use affinity_core::measures::{LocationMeasure, Measure, PairwiseMeasure};
use affinity_core::mec::require_distinct;
use affinity_data::{SequencePair, SeriesId};
use affinity_linalg::Matrix;
use affinity_ql::{plan, series_labels, CancelToken, Filter, QlError, QueryModel, QueryOutput};
use affinity_shard::{merge_keyed_series, splice_chunks, ShardPlan};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Fleet-wide model facts, agreed by every shard at construction time.
pub struct CoordMeta {
    /// Total series across shards.
    pub series: usize,
    /// Samples per series.
    pub samples: usize,
    /// Measures the shard indexes answer (effective support).
    pub indexed: Vec<Measure>,
    /// The series → shard ownership plan.
    pub plan: ShardPlan,
    /// The fleet's replay tick count at coordinator construction (the
    /// window warm-up counts, so a fresh fleet starts at the window
    /// size). Seeds the coordinator's tick ledger — failover re-heal
    /// drives a respawned shard back to `baseline + fanned-out ticks`.
    pub ticks: u64,
}

/// A typed statement failure. `code` is from the serve wire-code set
/// plus `UNAVAILABLE`.
#[derive(Debug)]
pub struct CoordError {
    /// Stable one-token wire code.
    pub code: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl CoordError {
    fn new(code: &'static str, message: String) -> CoordError {
        CoordError { code, message }
    }
}

/// Planner errors keep the wire code and text a local session reports.
impl From<QlError> for CoordError {
    fn from(e: QlError) -> CoordError {
        CoordError::new(e.wire_code(), e.to_string())
    }
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

impl std::error::Error for CoordError {}

/// A backend failure as a statement error. A shard's typed answer
/// keeps its code (the shard is healthy; the statement is what is
/// wrong); unknown codes collapse to `INTERNAL` rather than leaking
/// arbitrary bytes.
impl From<BackendError> for CoordError {
    fn from(e: BackendError) -> CoordError {
        match e {
            BackendError::Remote {
                shard,
                code,
                message,
            } => CoordError::new(intern_code(&code), format!("shard {shard}: {message}")),
            BackendError::Unavailable { shard, reason } => {
                CoordError::new("UNAVAILABLE", format!("shard {shard}: {reason}"))
            }
        }
    }
}

/// Map a shard-reported code onto the closed static set.
fn intern_code(code: &str) -> &'static str {
    match code {
        "PARSE" => "PARSE",
        "UNKNOWN" => "UNKNOWN",
        "RANGE" => "RANGE",
        "CANCELLED" => "CANCELLED",
        "DEADLINE" => "DEADLINE",
        "OVERLOADED" => "OVERLOADED",
        "PROTO" => "PROTO",
        _ => "INTERNAL",
    }
}

/// A successful (possibly degraded) statement answer.
#[derive(Debug)]
pub struct CoordAnswer {
    /// The merged output.
    pub output: QueryOutput,
    /// Shards whose contribution is absent (sorted, deduplicated).
    /// Empty means the answer is complete.
    pub missing: Vec<usize>,
}

/// Render shard indexes as the wire's comma-separated list.
pub(crate) fn shard_list(shards: &[usize]) -> String {
    shards
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// The routing + merge layer over a fleet of shard backends.
pub struct Coordinator {
    backends: Vec<Arc<dyn ShardBackend>>,
    labels: Vec<String>,
    meta: CoordMeta,
    strict: bool,
    stats: Arc<CoordStats>,
}

impl Coordinator {
    /// Build a coordinator by fetching and cross-checking `!meta` from
    /// every backend. Startup requires the *full* fleet: a coordinator
    /// that cannot see shard `i` cannot know what it will be missing.
    ///
    /// `labels` may be empty to auto-generate `S0..S{n-1}`.
    ///
    /// # Errors
    /// `UNAVAILABLE` when a shard cannot be reached, `INTERNAL` when
    /// the shards disagree about the model.
    pub fn new(
        backends: Vec<Arc<dyn ShardBackend>>,
        labels: Vec<String>,
        strict: bool,
        stats: Arc<CoordStats>,
    ) -> Result<Coordinator, CoordError> {
        if backends.is_empty() {
            return Err(CoordError::new(
                "INTERNAL",
                "a coordinator needs at least one shard backend".to_string(),
            ));
        }
        let mut meta: Option<CoordMeta> = None;
        for (i, backend) in backends.iter().enumerate() {
            if backend.shard() != i {
                return Err(CoordError::new(
                    "INTERNAL",
                    format!("backend {i} routes to shard {}", backend.shard()),
                ));
            }
            let m = match backend.call(&ShardRequest::Meta) {
                Ok(ShardResponse::Meta(m)) => m,
                Ok(_) => {
                    return Err(CoordError::new(
                        "INTERNAL",
                        format!("shard {i} answered the wrong shape for !meta"),
                    ))
                }
                Err(e) => {
                    return Err(CoordError::new("UNAVAILABLE", e.to_string()));
                }
            };
            if m.shard != i || m.shards != backends.len() {
                return Err(CoordError::new(
                    "INTERNAL",
                    format!(
                        "shard {i} claims to be shard {} of {} (fleet has {})",
                        m.shard,
                        m.shards,
                        backends.len()
                    ),
                ));
            }
            match &meta {
                None => {
                    let plan = ShardPlan::from_assignments(m.assignments.clone(), m.shards)
                        .map_err(|e| CoordError::new("INTERNAL", e.to_string()))?;
                    meta = Some(CoordMeta {
                        series: m.series,
                        samples: m.samples,
                        indexed: m.indexed.clone(),
                        plan,
                        ticks: m.ticks,
                    });
                }
                Some(agreed) => {
                    if m.series != agreed.series
                        || m.samples != agreed.samples
                        || m.indexed != agreed.indexed
                        || m.assignments != agreed.plan.assignments()
                        || m.ticks != agreed.ticks
                    {
                        return Err(CoordError::new(
                            "INTERNAL",
                            format!("shard {i} disagrees with shard 0 about the model"),
                        ));
                    }
                }
            }
        }
        let meta =
            meta.ok_or_else(|| CoordError::new("INTERNAL", "no shard meta collected".to_string()))?;
        let labels =
            series_labels(labels, meta.series).map_err(|msg| CoordError::new("INTERNAL", msg))?;
        Ok(Coordinator {
            backends,
            labels,
            meta,
            strict,
            stats,
        })
    }

    /// The agreed fleet meta.
    pub fn meta(&self) -> &CoordMeta {
        &self.meta
    }

    /// Whether strict mode (degradation → `UNAVAILABLE`) is on.
    pub fn strict(&self) -> bool {
        self.strict
    }

    /// The shared conservation ledger.
    pub fn stats(&self) -> &Arc<CoordStats> {
        &self.stats
    }

    /// Parse and execute one statement, with ledger accounting.
    ///
    /// # Errors
    /// [`CoordError`] with a stable wire code; a partial answer is
    /// *never* an error in non-strict mode — it is a [`CoordAnswer`]
    /// with `missing` non-empty.
    pub fn execute(&self, query: &str) -> Result<CoordAnswer, CoordError> {
        CoordStats::bump(&self.stats.stmts);
        let fleet = Fleet {
            coord: self,
            failed_calls: Cell::new(0),
            missing: RefCell::new(Vec::new()),
        };
        let result = plan::execute(&fleet, &self.labels, query, &CancelToken::new());
        let failed_calls = fleet.failed_calls.get();
        let mut missing = fleet.missing.into_inner();
        missing.sort_unstable();
        missing.dedup();
        let outcome = match result {
            Ok(output) if missing.is_empty() => {
                CoordStats::bump(&self.stats.ok);
                Ok(CoordAnswer { output, missing })
            }
            Ok(output) if !self.strict => {
                CoordStats::bump(&self.stats.degraded_answers);
                Ok(CoordAnswer { output, missing })
            }
            Ok(_) => {
                CoordStats::bump(&self.stats.unavailable);
                Err(CoordError::new(
                    "UNAVAILABLE",
                    format!(
                        "strict mode refuses a partial answer; shards {} down",
                        shard_list(&missing)
                    ),
                ))
            }
            Err(e) => {
                CoordStats::bump(if e.code == "UNAVAILABLE" {
                    &self.stats.unavailable
                } else {
                    &self.stats.errors
                });
                Err(e)
            }
        };
        // Settle this statement's finally-failed calls: the statement
        // was answered around them (degraded) or was lost with them
        // (failed).
        if failed_calls > 0 {
            let bucket = if outcome.is_ok() {
                &self.stats.degraded
            } else {
                &self.stats.failed
            };
            CoordStats::add(bucket, failed_calls);
        }
        outcome
    }
}

/// One statement's view of the fleet: the query primitives the planner
/// runs on, plus the statement's accounting — calls that finally failed
/// (settled into the `degraded`/`failed` ledger buckets once the
/// outcome is known) and shards whose contribution is missing.
struct Fleet<'a> {
    coord: &'a Coordinator,
    failed_calls: Cell<u64>,
    missing: RefCell<Vec<usize>>,
}

impl Fleet<'_> {
    /// Send `req` to every target shard concurrently. Returns the
    /// healthy answers and the sorted list of unreachable shards;
    /// a shard-reported typed error fails the whole statement (the
    /// shard is *healthy* — the statement is what is wrong).
    #[allow(clippy::type_complexity)]
    fn fan_out(
        &self,
        targets: &[usize],
        req: &ShardRequest,
    ) -> Result<(Vec<(usize, ShardResponse)>, Vec<usize>), CoordError> {
        let call = |t: usize| match self.coord.backends.get(t) {
            Some(b) => b.call(req),
            None => Err(BackendError::Unavailable {
                shard: t,
                reason: "no backend".to_string(),
            }),
        };
        let mut results: Vec<(usize, Result<ShardResponse, BackendError>)> =
            Vec::with_capacity(targets.len());
        if let [one] = targets {
            results.push((*one, call(*one)));
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|&t| (t, scope.spawn(move || call(t))))
                    .collect();
                for (t, handle) in handles {
                    // A panicking backend must degrade, not poison the
                    // coordinator.
                    let r = handle.join().unwrap_or_else(|_| {
                        Err(BackendError::Unavailable {
                            shard: t,
                            reason: "backend panicked".to_string(),
                        })
                    });
                    results.push((t, r));
                }
            });
        }
        let mut ok = Vec::new();
        let mut down = Vec::new();
        let mut remote: Option<CoordError> = None;
        for (t, r) in results {
            match r {
                Ok(resp) => ok.push((t, resp)),
                Err(BackendError::Unavailable { .. }) => {
                    self.failed_calls
                        .set(self.failed_calls.get().saturating_add(1));
                    down.push(t);
                }
                Err(e @ BackendError::Remote { .. }) => {
                    remote.get_or_insert_with(|| e.into());
                }
            }
        }
        if let Some(e) = remote {
            return Err(e);
        }
        down.sort_unstable();
        Ok((ok, down))
    }

    /// Fan `req` to every shard for an answer that may degrade: the
    /// unreachable shards become the statement's `missing` list, and
    /// with none reachable the statement is `UNAVAILABLE`.
    fn fan_all(&self, req: &ShardRequest) -> Result<Vec<(usize, ShardResponse)>, CoordError> {
        let all: Vec<usize> = (0..self.coord.backends.len()).collect();
        let (ok, down) = self.fan_out(&all, req)?;
        if ok.is_empty() {
            return Err(no_shard_reachable());
        }
        self.missing.borrow_mut().extend(down);
        Ok(ok)
    }

    /// Ask shards in order until one answers `req` (used for answers
    /// any shard can give, like normalizer diagonals).
    fn first_healthy(&self, req: &ShardRequest) -> Result<ShardResponse, CoordError> {
        for backend in &self.coord.backends {
            match backend.call(req) {
                Ok(resp) => return Ok(resp),
                Err(BackendError::Unavailable { .. }) => {
                    self.failed_calls
                        .set(self.failed_calls.get().saturating_add(1));
                }
                Err(e @ BackendError::Remote { .. }) => return Err(e.into()),
            }
        }
        Err(no_shard_reachable())
    }
}

impl QueryModel for Fleet<'_> {
    type Error = CoordError;

    fn indexed(&self, measure: Measure) -> bool {
        self.coord.meta.indexed.contains(&measure)
    }

    fn shards(&self) -> Option<usize> {
        Some(self.coord.meta.plan.shards())
    }

    /// Route each id to its owning shard. A down owner drops its rows
    /// (degraded); every owner down is `UNAVAILABLE`.
    fn location(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
    ) -> Result<Vec<Option<f64>>, CoordError> {
        // Group requested positions by owning shard, preserving request
        // order within each group.
        let mut by_owner: BTreeMap<usize, Vec<(usize, SeriesId)>> = BTreeMap::new();
        for (pos, &v) in ids.iter().enumerate() {
            let owner = self.coord.meta.plan.shard_of(v).unwrap_or(0);
            by_owner.entry(owner).or_default().push((pos, v));
        }
        let mut rows: Vec<Option<f64>> = vec![None; ids.len()];
        let mut answered_any = by_owner.is_empty();
        for (owner, group) in &by_owner {
            let mut owner_down = false;
            for chunk in group.chunks(MAX_LIST) {
                let req = ShardRequest::LocationValues {
                    measure,
                    ids: chunk.iter().map(|&(_, v)| v as u32).collect(),
                };
                let (ok, down) = self.fan_out(&[*owner], &req)?;
                let Some((shard, resp)) = ok.into_iter().next().filter(|_| down.is_empty()) else {
                    owner_down = true;
                    break;
                };
                let ShardResponse::Values(values) = resp else {
                    return Err(wrong_shape(shard));
                };
                if values.len() != chunk.len() {
                    return Err(wrong_shape(*owner));
                }
                for (&(pos, _), x) in chunk.iter().zip(values) {
                    if let Some(slot) = rows.get_mut(pos) {
                        *slot = Some(x);
                    }
                }
            }
            if owner_down {
                self.missing.borrow_mut().push(*owner);
            } else {
                answered_any = true;
            }
        }
        if !answered_any {
            return Err(CoordError::new(
                "UNAVAILABLE",
                "every owning shard is unreachable".to_string(),
            ));
        }
        Ok(rows)
    }

    /// All-or-nothing: a matrix with holes is a *wrong* answer, not a
    /// partial one, so any needed shard being down fails the statement
    /// `UNAVAILABLE`.
    fn pairwise(&self, measure: PairwiseMeasure, ids: &[SeriesId]) -> Result<Matrix, CoordError> {
        // Same typed rejection (code and text) as a local session.
        require_distinct(ids).map_err(|e| QlError::Engine(e.to_string()))?;
        let q = ids.len();
        let mut matrix = Matrix::zeros(q, q);
        // Diagonal: global normalizer tables, identical on every shard —
        // any healthy shard answers.
        for (offset, chunk) in ids.chunks(MAX_LIST).enumerate() {
            let req = ShardRequest::DiagValues {
                measure,
                ids: chunk.iter().map(|&v| v as u32).collect(),
            };
            let ShardResponse::Values(values) = self.first_healthy(&req)? else {
                return Err(wrong_shape(0));
            };
            if values.len() != chunk.len() {
                return Err(CoordError::new(
                    "INTERNAL",
                    "diagonal answer shape mismatch".to_string(),
                ));
            }
            for (k, x) in values.into_iter().enumerate() {
                let i = offset.saturating_mul(MAX_LIST).saturating_add(k);
                matrix.set(i, i, x);
            }
        }
        // Off-diagonals: each pair lives in exactly one shard's affine
        // partition, unknowable from the plan — ask everyone, take the
        // unique `Some`. Pairs are canonicalized: resolve order need not
        // be id order.
        let mut flat: Vec<(usize, usize, SequencePair)> =
            Vec::with_capacity(q.saturating_mul(q) / 2);
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate().skip(i + 1) {
                flat.push((i, j, SequencePair::new(a, b)));
            }
        }
        let all: Vec<usize> = (0..self.coord.backends.len()).collect();
        for chunk in flat.chunks(MAX_LIST) {
            let req = ShardRequest::PairValues {
                measure,
                pairs: chunk
                    .iter()
                    .map(|&(_, _, p)| (p.u as u32, p.v as u32))
                    .collect(),
            };
            let (ok, down) = self.fan_out(&all, &req)?;
            if !down.is_empty() {
                return Err(CoordError::new(
                    "UNAVAILABLE",
                    format!(
                        "MEC pairwise needs every shard; shards {} down",
                        shard_list(&down)
                    ),
                ));
            }
            let mut merged: Vec<Option<f64>> = vec![None; chunk.len()];
            for (shard, resp) in ok {
                let ShardResponse::MaybeValues(values) = resp else {
                    return Err(wrong_shape(shard));
                };
                if values.len() != chunk.len() {
                    return Err(wrong_shape(shard));
                }
                for (slot, value) in merged.iter_mut().zip(values) {
                    if let Some(x) = value {
                        *slot = Some(x);
                    }
                }
            }
            for (&(i, j, p), value) in chunk.iter().zip(merged) {
                let Some(x) = value else {
                    return Err(QlError::Engine(format!(
                        "no affine relationship stored for pair ({}, {})",
                        p.u, p.v
                    ))
                    .into());
                };
                matrix.set(i, j, x);
                matrix.set(j, i, x);
            }
        }
        Ok(matrix)
    }

    /// Fan to every shard, splice chunks by global pivot ordinal — the
    /// exact in-process merge ([`splice_chunks`]).
    fn search_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        _token: &CancelToken,
    ) -> Result<Vec<SequencePair>, CoordError> {
        let req = match filter {
            Filter::Threshold { op, tau } => ShardRequest::ThresholdPairs { measure, op, tau },
            Filter::Range { lo, hi } => ShardRequest::RangePairs { measure, lo, hi },
        };
        let mut chunks: Vec<(u32, Vec<SequencePair>)> = Vec::new();
        for (shard, resp) in self.fan_all(&req)? {
            let ShardResponse::PairChunks(cs) = resp else {
                return Err(wrong_shape(shard));
            };
            for (ord, pairs) in cs {
                chunks.push((
                    ord,
                    pairs
                        .iter()
                        // Safe literal: the wire decoder rejects u >= v.
                        .map(|&(u, v)| SequencePair {
                            u: u as usize,
                            v: v as usize,
                        })
                        .collect(),
                ));
            }
        }
        Ok(splice_chunks(chunks))
    }

    /// Fan to every shard, merge per-cluster keyed entries — the exact
    /// in-process merge ([`merge_keyed_series`]).
    fn search_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        _token: &CancelToken,
    ) -> Result<Vec<SeriesId>, CoordError> {
        let req = match filter {
            Filter::Threshold { op, tau } => ShardRequest::ThresholdSeries { measure, op, tau },
            Filter::Range { lo, hi } => ShardRequest::RangeSeries { measure, lo, hi },
        };
        let mut per_shard: Vec<Vec<Vec<(f64, SeriesId)>>> = Vec::new();
        for (shard, resp) in self.fan_all(&req)? {
            let ShardResponse::KeyedSeries(clusters) = resp else {
                return Err(wrong_shape(shard));
            };
            per_shard.push(
                clusters
                    .into_iter()
                    .map(|entries| {
                        entries
                            .into_iter()
                            .map(|(xi, v)| (xi, v as usize))
                            .collect()
                    })
                    .collect(),
            );
        }
        Ok(merge_keyed_series(per_shard))
    }

    /// Every shard scans its own relationship partition; the
    /// coordinator filters and sorts into the monolithic scan's
    /// `(u, v)` iteration order.
    fn scan_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        _token: &CancelToken,
    ) -> Result<Vec<SequencePair>, CoordError> {
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for (shard, resp) in self.fan_all(&ShardRequest::ScanPairs { measure })? {
            let ShardResponse::ScanPairs(entries) = resp else {
                return Err(wrong_shape(shard));
            };
            hits.extend(
                entries
                    .into_iter()
                    .filter(|&(_, _, x)| filter.keep(x))
                    .map(|(u, v, _)| (u, v)),
            );
        }
        // The shards' pair sets are disjoint, so sorting recovers the
        // u-ascending / v-ascending global scan order exactly.
        hits.sort_unstable();
        Ok(hits
            .into_iter()
            .map(|(u, v)| SequencePair {
                u: u as usize,
                v: v as usize,
            })
            .collect())
    }

    /// Every shard scans the series it owns; filter + sort recovers the
    /// global `0..n` order.
    fn scan_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        _token: &CancelToken,
    ) -> Result<Vec<SeriesId>, CoordError> {
        let mut hits: Vec<u32> = Vec::new();
        for (shard, resp) in self.fan_all(&ShardRequest::ScanSeries { measure })? {
            let ShardResponse::ScanSeries(entries) = resp else {
                return Err(wrong_shape(shard));
            };
            hits.extend(
                entries
                    .into_iter()
                    .filter(|&(_, x)| filter.keep(x))
                    .map(|(v, _)| v),
            );
        }
        hits.sort_unstable();
        Ok(hits.into_iter().map(|v| v as usize).collect())
    }
}

fn no_shard_reachable() -> CoordError {
    CoordError::new("UNAVAILABLE", "no shard reachable".to_string())
}

fn wrong_shape(shard: usize) -> CoordError {
    CoordError::new(
        "INTERNAL",
        format!("shard {shard} answered the wrong shape"),
    )
}
