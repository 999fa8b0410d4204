//! Statement execution over a fleet of shard backends.
//!
//! The coordinator parses MET/MER/MEC statements with `affinity_ql`,
//! fans the shard-local pieces out over [`ShardBackend`]s, and merges
//! with the *same* splice/merge helpers [`affinity_shard::ShardedModel`]
//! uses in process — so a distributed answer is bit-identical to the
//! single-box sharded answer, which PR 9's oracle already proved
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
use affinity_ql::{parse, series_labels, QlError, QueryOutput, Statement};
use affinity_scape::ThresholdOp;
use affinity_shard::{merge_keyed_series, splice_chunks, ShardPlan};
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

    fn from_ql(e: &QlError) -> CoordError {
        CoordError::new(e.wire_code(), e.to_string())
    }
}

impl fmt::Display for CoordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.code, self.message)
    }
}

impl std::error::Error for CoordError {}

/// Map a shard-reported code onto the closed static set (unknown codes
/// collapse to `INTERNAL` rather than leaking arbitrary bytes).
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

/// Per-statement accounting of calls that finally failed; settled into
/// the `degraded`/`failed` ledger buckets once the statement outcome is
/// known.
#[derive(Default)]
struct Acct {
    failed_calls: u64,
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
        let meta = match meta {
            Some(m) => m,
            None => {
                return Err(CoordError::new(
                    "INTERNAL",
                    "no shard meta collected".to_string(),
                ))
            }
        };
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
        let statement = match parse(query) {
            Ok(s) => s,
            Err(e) => {
                CoordStats::bump(&self.stats.errors);
                return Err(CoordError::from_ql(&QlError::Parse(e)));
            }
        };
        let mut acct = Acct::default();
        let settled = match self.run(&statement, &mut acct) {
            Ok((output, missing)) if missing.is_empty() => {
                CoordStats::bump(&self.stats.ok);
                Ok((output, missing, true))
            }
            Ok((output, missing)) => {
                if self.strict {
                    CoordStats::bump(&self.stats.unavailable);
                    let list = missing
                        .iter()
                        .map(|s| s.to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    Err((
                        CoordError::new(
                            "UNAVAILABLE",
                            format!("strict mode refuses a partial answer; shards {list} down"),
                        ),
                        false,
                    ))
                } else {
                    CoordStats::bump(&self.stats.degraded_answers);
                    Ok((output, missing, true))
                }
            }
            Err(e) => {
                CoordStats::bump(if e.code == "UNAVAILABLE" {
                    &self.stats.unavailable
                } else {
                    &self.stats.errors
                });
                Err((e, false))
            }
        };
        // Settle this statement's finally-failed calls: the statement
        // was answered around them (degraded) or was lost with them
        // (failed).
        match settled {
            Ok((output, missing, answered)) => {
                self.settle(&acct, answered);
                Ok(CoordAnswer { output, missing })
            }
            Err((e, answered)) => {
                self.settle(&acct, answered);
                Err(e)
            }
        }
    }

    fn settle(&self, acct: &Acct, answered: bool) {
        if acct.failed_calls > 0 {
            let bucket = if answered {
                &self.stats.degraded
            } else {
                &self.stats.failed
            };
            CoordStats::add(bucket, acct.failed_calls);
        }
    }

    // --- label resolution (mirrors affinity_ql::Session) -----------

    fn resolve(&self, reference: &str) -> Result<SeriesId, CoordError> {
        for (v, label) in self.labels.iter().enumerate() {
            if label == reference {
                return Ok(v);
            }
        }
        if let Ok(id) = reference.parse::<usize>() {
            if id < self.labels.len() {
                return Ok(id);
            }
        }
        Err(CoordError::from_ql(&QlError::UnknownSeries(
            reference.to_string(),
        )))
    }

    fn label(&self, v: SeriesId) -> String {
        self.labels
            .get(v)
            .cloned()
            .unwrap_or_else(|| format!("series-{v}"))
    }

    fn pair_labels(&self, pairs: Vec<SequencePair>) -> Vec<(String, String)> {
        pairs
            .into_iter()
            .map(|p| (self.label(p.u), self.label(p.v)))
            .collect()
    }

    fn indexed(&self, measure: Measure) -> bool {
        self.meta.indexed.contains(&measure)
    }

    // --- fan-out ---------------------------------------------------

    /// Send `req` to every target shard concurrently. Returns the
    /// healthy answers and the sorted list of unreachable shards;
    /// a shard-reported typed error fails the whole statement (the
    /// shard is *healthy* — the statement is what is wrong).
    #[allow(clippy::type_complexity)]
    fn fan_out(
        &self,
        targets: &[usize],
        req: &ShardRequest,
        acct: &mut Acct,
    ) -> Result<(Vec<(usize, ShardResponse)>, Vec<usize>), CoordError> {
        let mut results: Vec<(usize, Result<ShardResponse, BackendError>)> =
            Vec::with_capacity(targets.len());
        if let [one] = targets {
            let r = match self.backends.get(*one) {
                Some(b) => b.call(req),
                None => Err(BackendError::Unavailable {
                    shard: *one,
                    reason: "no backend".to_string(),
                }),
            };
            results.push((*one, r));
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = targets
                    .iter()
                    .map(|&t| {
                        let backend = self.backends.get(t).cloned();
                        let handle = scope.spawn(move || match backend {
                            Some(b) => b.call(req),
                            None => Err(BackendError::Unavailable {
                                shard: t,
                                reason: "no backend".to_string(),
                            }),
                        });
                        (t, handle)
                    })
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
                    acct.failed_calls = acct.failed_calls.saturating_add(1);
                    down.push(t);
                }
                Err(BackendError::Remote {
                    shard,
                    code,
                    message,
                }) => {
                    if remote.is_none() {
                        remote = Some(CoordError::new(
                            intern_code(&code),
                            format!("shard {shard}: {message}"),
                        ));
                    }
                }
            }
        }
        if let Some(e) = remote {
            return Err(e);
        }
        down.sort_unstable();
        Ok((ok, down))
    }

    /// Ask shards in order until one answers `req` (used for answers
    /// any shard can give, like normalizer diagonals).
    fn first_healthy(
        &self,
        req: &ShardRequest,
        acct: &mut Acct,
    ) -> Result<ShardResponse, CoordError> {
        for backend in &self.backends {
            match backend.call(req) {
                Ok(resp) => return Ok(resp),
                Err(BackendError::Unavailable { .. }) => {
                    acct.failed_calls = acct.failed_calls.saturating_add(1);
                }
                Err(BackendError::Remote {
                    shard,
                    code,
                    message,
                }) => {
                    return Err(CoordError::new(
                        intern_code(&code),
                        format!("shard {shard}: {message}"),
                    ));
                }
            }
        }
        Err(CoordError::new(
            "UNAVAILABLE",
            "no shard reachable".to_string(),
        ))
    }

    fn all_shards(&self) -> Vec<usize> {
        (0..self.backends.len()).collect()
    }

    // --- execution -------------------------------------------------

    #[allow(clippy::type_complexity)]
    fn run(
        &self,
        statement: &Statement,
        acct: &mut Acct,
    ) -> Result<(QueryOutput, Vec<usize>), CoordError> {
        match statement {
            Statement::Explain(inner) => Ok((QueryOutput::Plan(self.plan(inner)), Vec::new())),
            Statement::Mec { measure, series } => {
                let ids = series
                    .iter()
                    .map(|s| self.resolve(s))
                    .collect::<Result<Vec<_>, _>>()?;
                match measure {
                    Measure::Location(l) => self.mec_location(*l, &ids, acct),
                    Measure::Pairwise(p) => self.mec_pairwise(*p, &ids, acct),
                }
            }
            Statement::Met {
                measure,
                greater,
                tau,
            } => {
                let op = if *greater {
                    ThresholdOp::Greater
                } else {
                    ThresholdOp::Less
                };
                let tau = *tau;
                match measure {
                    Measure::Pairwise(p) => {
                        if self.indexed(*measure) {
                            let req = ShardRequest::ThresholdPairs {
                                measure: *p,
                                op,
                                tau,
                            };
                            self.merge_pairs(&req, acct)
                        } else {
                            self.scan_pairs(
                                *p,
                                move |v| match op {
                                    ThresholdOp::Greater => v > tau,
                                    ThresholdOp::Less => v < tau,
                                },
                                acct,
                            )
                        }
                    }
                    Measure::Location(l) => {
                        if self.indexed(*measure) {
                            let req = ShardRequest::ThresholdSeries {
                                measure: *l,
                                op,
                                tau,
                            };
                            self.merge_series(&req, acct)
                        } else {
                            self.scan_series(
                                *l,
                                move |v| match op {
                                    ThresholdOp::Greater => v > tau,
                                    ThresholdOp::Less => v < tau,
                                },
                                acct,
                            )
                        }
                    }
                }
            }
            Statement::Mer { measure, lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                if lo > hi {
                    return Err(CoordError::from_ql(&QlError::EmptyRange { lo, hi }));
                }
                match measure {
                    Measure::Pairwise(p) => {
                        if self.indexed(*measure) {
                            let req = ShardRequest::RangePairs {
                                measure: *p,
                                lo,
                                hi,
                            };
                            self.merge_pairs(&req, acct)
                        } else {
                            self.scan_pairs(*p, move |v| lo < v && v < hi, acct)
                        }
                    }
                    Measure::Location(l) => {
                        if self.indexed(*measure) {
                            let req = ShardRequest::RangeSeries {
                                measure: *l,
                                lo,
                                hi,
                            };
                            self.merge_series(&req, acct)
                        } else {
                            self.scan_series(*l, move |v| lo < v && v < hi, acct)
                        }
                    }
                }
            }
        }
    }

    /// Indexed MET/MER over a pairwise measure: fan to every shard,
    /// splice chunks by global pivot ordinal — the exact in-process
    /// merge ([`splice_chunks`]).
    #[allow(clippy::type_complexity)]
    fn merge_pairs(
        &self,
        req: &ShardRequest,
        acct: &mut Acct,
    ) -> Result<(QueryOutput, Vec<usize>), CoordError> {
        let (ok, down) = self.fan_out(&self.all_shards(), req, acct)?;
        if ok.is_empty() {
            return Err(CoordError::new(
                "UNAVAILABLE",
                "no shard reachable".to_string(),
            ));
        }
        let mut chunks: Vec<(u32, Vec<SequencePair>)> = Vec::new();
        for (shard, resp) in ok {
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
        let pairs = splice_chunks(chunks);
        Ok((QueryOutput::Pairs(self.pair_labels(pairs)), down))
    }

    /// Indexed MET/MER over a location measure: fan to every shard,
    /// merge per-cluster keyed entries — the exact in-process merge
    /// ([`merge_keyed_series`]).
    #[allow(clippy::type_complexity)]
    fn merge_series(
        &self,
        req: &ShardRequest,
        acct: &mut Acct,
    ) -> Result<(QueryOutput, Vec<usize>), CoordError> {
        let (ok, down) = self.fan_out(&self.all_shards(), req, acct)?;
        if ok.is_empty() {
            return Err(CoordError::new(
                "UNAVAILABLE",
                "no shard reachable".to_string(),
            ));
        }
        let mut per_shard: Vec<Vec<Vec<(f64, SeriesId)>>> = Vec::with_capacity(ok.len());
        for (shard, resp) in ok {
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
        let series = merge_keyed_series(per_shard);
        Ok((
            QueryOutput::Series(series.into_iter().map(|v| self.label(v)).collect()),
            down,
        ))
    }

    /// Fallback MET/MER over a pairwise measure: every shard scans its
    /// own relationship partition; the coordinator filters and sorts
    /// into the monolithic scan's `(u, v)` iteration order.
    #[allow(clippy::type_complexity)]
    fn scan_pairs(
        &self,
        measure: PairwiseMeasure,
        keep: impl Fn(f64) -> bool,
        acct: &mut Acct,
    ) -> Result<(QueryOutput, Vec<usize>), CoordError> {
        let req = ShardRequest::ScanPairs { measure };
        let (ok, down) = self.fan_out(&self.all_shards(), &req, acct)?;
        if ok.is_empty() {
            return Err(CoordError::new(
                "UNAVAILABLE",
                "no shard reachable".to_string(),
            ));
        }
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for (shard, resp) in ok {
            let ShardResponse::ScanPairs(entries) = resp else {
                return Err(wrong_shape(shard));
            };
            for (u, v, x) in entries {
                if keep(x) {
                    hits.push((u, v));
                }
            }
        }
        // The shards' pair sets are disjoint, so sorting recovers the
        // u-ascending / v-ascending global scan order exactly.
        hits.sort_unstable();
        let pairs = hits
            .into_iter()
            .map(|(u, v)| SequencePair {
                u: u as usize,
                v: v as usize,
            })
            .collect();
        Ok((QueryOutput::Pairs(self.pair_labels(pairs)), down))
    }

    /// Fallback MET/MER over a location measure: every shard scans the
    /// series it owns; filter + sort recovers the global `0..n` order.
    #[allow(clippy::type_complexity)]
    fn scan_series(
        &self,
        measure: LocationMeasure,
        keep: impl Fn(f64) -> bool,
        acct: &mut Acct,
    ) -> Result<(QueryOutput, Vec<usize>), CoordError> {
        let req = ShardRequest::ScanSeries { measure };
        let (ok, down) = self.fan_out(&self.all_shards(), &req, acct)?;
        if ok.is_empty() {
            return Err(CoordError::new(
                "UNAVAILABLE",
                "no shard reachable".to_string(),
            ));
        }
        let mut hits: Vec<u32> = Vec::new();
        for (shard, resp) in ok {
            let ShardResponse::ScanSeries(entries) = resp else {
                return Err(wrong_shape(shard));
            };
            for (v, x) in entries {
                if keep(x) {
                    hits.push(v);
                }
            }
        }
        hits.sort_unstable();
        Ok((
            QueryOutput::Series(hits.into_iter().map(|v| self.label(v as usize)).collect()),
            down,
        ))
    }

    /// MEC over a location measure: route each id to its owning shard.
    /// A down owner drops its rows (degraded); every owner down is
    /// `UNAVAILABLE`.
    #[allow(clippy::type_complexity)]
    fn mec_location(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
        acct: &mut Acct,
    ) -> Result<(QueryOutput, Vec<usize>), CoordError> {
        // Group requested positions by owning shard, preserving request
        // order within each group.
        let mut by_owner: BTreeMap<usize, Vec<(usize, SeriesId)>> = BTreeMap::new();
        for (pos, &v) in ids.iter().enumerate() {
            let owner = self.meta.plan.shard_of(v).unwrap_or(0);
            by_owner.entry(owner).or_default().push((pos, v));
        }
        let mut rows: Vec<Option<(String, f64)>> = vec![None; ids.len()];
        let mut down: Vec<usize> = Vec::new();
        let mut answered_any = by_owner.is_empty();
        for (owner, group) in &by_owner {
            let mut owner_down = false;
            for chunk in group.chunks(MAX_LIST) {
                let req = ShardRequest::LocationValues {
                    measure,
                    ids: chunk.iter().map(|&(_, v)| v as u32).collect(),
                };
                let (ok, fan_down) = self.fan_out(&[*owner], &req, acct)?;
                if !fan_down.is_empty() {
                    owner_down = true;
                    break;
                }
                let Some((shard, resp)) = ok.into_iter().next() else {
                    owner_down = true;
                    break;
                };
                let ShardResponse::Values(values) = resp else {
                    return Err(wrong_shape(shard));
                };
                if values.len() != chunk.len() {
                    return Err(wrong_shape(*owner));
                }
                for (&(pos, v), x) in chunk.iter().zip(values) {
                    if let Some(slot) = rows.get_mut(pos) {
                        *slot = Some((self.label(v), x));
                    }
                }
            }
            if owner_down {
                down.push(*owner);
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
        Ok((
            QueryOutput::Values(rows.into_iter().flatten().collect()),
            down,
        ))
    }

    /// MEC over a pairwise measure: all-or-nothing — a matrix with
    /// holes is a *wrong* answer, not a partial one, so any needed
    /// shard being down fails the statement `UNAVAILABLE`.
    #[allow(clippy::type_complexity)]
    fn mec_pairwise(
        &self,
        measure: PairwiseMeasure,
        ids: &[SeriesId],
        acct: &mut Acct,
    ) -> Result<(QueryOutput, Vec<usize>), CoordError> {
        // Same typed rejection (code and text) as a local session.
        require_distinct(ids).map_err(|e| CoordError::from_ql(&QlError::Engine(e.to_string())))?;
        let q = ids.len();
        let mut matrix = Matrix::zeros(q, q);
        // Diagonal: global normalizer tables, identical on every shard —
        // any healthy shard answers.
        for (offset, chunk) in ids.chunks(MAX_LIST).enumerate() {
            let req = ShardRequest::DiagValues {
                measure,
                ids: chunk.iter().map(|&v| v as u32).collect(),
            };
            let resp = self.first_healthy(&req, acct)?;
            let ShardResponse::Values(values) = resp else {
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
        // unique `Some`.
        let mut flat: Vec<(usize, usize)> = Vec::with_capacity(q.saturating_mul(q) / 2);
        for i in 0..q {
            for j in i + 1..q {
                flat.push((i, j));
            }
        }
        for chunk in flat.chunks(MAX_LIST) {
            let wire_pairs: Vec<(u32, u32)> = chunk
                .iter()
                .map(|&(i, j)| {
                    let (a, b) = (ids[i], ids[j]);
                    // Canonicalize: resolve order need not be id order.
                    if a < b {
                        (a as u32, b as u32)
                    } else {
                        (b as u32, a as u32)
                    }
                })
                .collect();
            let req = ShardRequest::PairValues {
                measure,
                pairs: wire_pairs,
            };
            let (ok, down) = self.fan_out(&self.all_shards(), &req, acct)?;
            if !down.is_empty() {
                let list = down
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                return Err(CoordError::new(
                    "UNAVAILABLE",
                    format!("MEC pairwise needs every shard; shards {list} down"),
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
            for (&(i, j), value) in chunk.iter().zip(merged) {
                let Some(x) = value else {
                    let (a, b) = (ids[i].min(ids[j]), ids[i].max(ids[j]));
                    return Err(CoordError::from_ql(&QlError::Engine(format!(
                        "no affine relationship stored for pair ({a}, {b})"
                    ))));
                };
                matrix.set(i, j, x);
                matrix.set(j, i, x);
            }
        }
        Ok((
            QueryOutput::PairMatrix {
                labels: ids.iter().map(|&v| self.label(v)).collect(),
                matrix,
            },
            Vec::new(),
        ))
    }

    /// `EXPLAIN` rendering; mirrors the sharded
    /// [`affinity_ql::Session`] plan strings with `k = plan.shards()`.
    fn plan(&self, statement: &Statement) -> String {
        let k = self.meta.plan.shards();
        let sharded = format!("; merged across {k} shards");
        match statement {
            Statement::Explain(inner) => self.plan(inner),
            Statement::Mec { measure, series } => format!(
                "MEC {}: MecEngine (W_A) over {} series; pivot statistics from hash map, O(1) per value{}",
                measure.name(),
                series.len(),
                "; routed to owning shard"
            ),
            Statement::Met { measure, .. } | Statement::Mer { measure, .. } => {
                let kind = if matches!(statement, Statement::Met { .. }) {
                    "MET"
                } else {
                    "MER"
                };
                if self.indexed(*measure) {
                    format!(
                        "{kind} {}: SCAPE index search with modified thresholds (tau' = tau/||alpha||){}{sharded}",
                        measure.name(),
                        if matches!(
                            measure,
                            Measure::Pairwise(p) if p.is_derived()
                        ) {
                            " + normalizer-bound pruning"
                        } else {
                            ""
                        }
                    )
                } else {
                    format!(
                        "{kind} {}: full scan of W_A values (measure not indexed){sharded}",
                        measure.name()
                    )
                }
            }
        }
    }
}

fn wrong_shape(shard: usize) -> CoordError {
    CoordError::new(
        "INTERNAL",
        format!("shard {shard} answered the wrong shape"),
    )
}
