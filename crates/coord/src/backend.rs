//! The [`ShardBackend`] trait and the shared shard-side query
//! implementation.
//!
//! [`answer`] is the *single* implementation of every shard request:
//! the in-process backend calls it directly, and a shard server calls
//! it for requests that arrived over the wire. The remote and
//! in-process paths therefore cannot drift — the distributed oracle
//! holds because both transports execute this function.
//!
//! Requests arrive decoded from untrusted bytes, so `answer` is
//! panic-free: out-of-range ids and shapes come back as
//! [`AnswerError`]s with stable wire codes, never as crashes.

use crate::proto::{ProtoError, ShardMeta, ShardRequest, ShardResponse};
use crate::stats::CoordStats;
use affinity_core::error::CoreError;
use affinity_core::measures::{LocationMeasure, Measure, PairwiseMeasure};
use affinity_data::SequencePair;
use affinity_scape::{Filter, ScapeError};
use affinity_shard::{ShardModel, ShardedModel};
use std::fmt;
use std::sync::Arc;

/// Why a backend call failed, as the coordinator's executor sees it.
#[derive(Debug)]
pub enum BackendError {
    /// The shard could not be reached: connect/io/timeout/decode
    /// failures past the retry budget, or a fast-fail from an open
    /// circuit breaker. The statement degrades around this shard (or
    /// becomes `UNAVAILABLE` if it cannot).
    Unavailable {
        /// The shard that was unreachable.
        shard: usize,
        /// Human-readable cause of the *last* attempt.
        reason: String,
    },
    /// The shard is alive and answered a typed error — the transport
    /// succeeded, the statement itself fails with the shard's code.
    Remote {
        /// The answering shard.
        shard: usize,
        /// Wire error code (`PROTO`, `UNKNOWN`, `INTERNAL`, …).
        code: String,
        /// Error message.
        message: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::Unavailable { shard, reason } => {
                write!(f, "shard {shard} unavailable: {reason}")
            }
            BackendError::Remote {
                shard,
                code,
                message,
            } => write!(f, "shard {shard} answered {code}: {message}"),
        }
    }
}

impl std::error::Error for BackendError {}

/// A routed transport to one shard. Implementations: in-process
/// ([`InProcBackend`]), TCP ([`crate::remote::RemoteShard`]), and
/// test doubles that inject failures.
pub trait ShardBackend: Send + Sync {
    /// The shard index this backend reaches.
    fn shard(&self) -> usize;
    /// Execute one request, observing the implementation's deadline /
    /// retry / breaker policy.
    fn call(&self, req: &ShardRequest) -> Result<ShardResponse, BackendError>;
}

/// Shard-side execution failures, mapped to stable wire codes.
#[derive(Debug)]
pub enum AnswerError {
    /// The request names a shard this model does not have.
    NoShard {
        /// Requested shard.
        shard: usize,
        /// Shards the model holds.
        shards: usize,
    },
    /// The request is structurally valid but semantically impossible.
    BadRequest(String),
    /// An index query failed.
    Scape(ScapeError),
    /// An engine lookup failed.
    Core(CoreError),
}

impl AnswerError {
    /// The wire error code carried on the `ERR` response line.
    pub fn wire_code(&self) -> &'static str {
        match self {
            AnswerError::NoShard { .. } | AnswerError::BadRequest(_) => "PROTO",
            AnswerError::Scape(ScapeError::EmptyRange) => "RANGE",
            AnswerError::Scape(ScapeError::Cancelled) => "CANCELLED",
            AnswerError::Scape(_) => "INTERNAL",
            AnswerError::Core(CoreError::UnknownSeries { .. }) => "UNKNOWN",
            AnswerError::Core(_) => "INTERNAL",
        }
    }
}

impl fmt::Display for AnswerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerError::NoShard { shard, shards } => {
                write!(f, "shard {shard} of a {shards}-shard model")
            }
            AnswerError::BadRequest(m) => write!(f, "{m}"),
            AnswerError::Scape(e) => write!(f, "{e}"),
            AnswerError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for AnswerError {}

impl From<ProtoError> for AnswerError {
    fn from(e: ProtoError) -> Self {
        AnswerError::BadRequest(e.to_string())
    }
}

/// The measures this model's indexes can answer — *effective* support
/// (cosine rides the dot-product tree, correlation needs its flag), so
/// the coordinator's indexed-vs-scan planning decision lands exactly
/// where a local sharded [`affinity_ql::Session`]'s would.
pub fn supported_measures(model: &ShardedModel) -> Vec<Measure> {
    Measure::EXTENDED
        .iter()
        .copied()
        .filter(|&m| model.supports(m))
        .collect()
}

/// Answer one decoded request against shard `shard` of `model`.
/// `ticks` and `epoch` describe the serving state (meta only).
///
/// # Errors
/// [`AnswerError`] with a stable wire code; never panics — requests
/// decode from untrusted bytes.
pub fn answer(
    model: &ShardedModel,
    shard: usize,
    ticks: u64,
    epoch: u64,
    req: &ShardRequest,
) -> Result<ShardResponse, AnswerError> {
    let sm = model.shards().get(shard).ok_or(AnswerError::NoShard {
        shard,
        shards: model.shards().len(),
    })?;
    let n = model.series_count();
    match req {
        ShardRequest::Meta => Ok(ShardResponse::Meta(ShardMeta {
            shard,
            shards: model.plan().shards(),
            series: n,
            samples: model.samples(),
            ticks,
            epoch,
            indexed: supported_measures(model),
            assignments: model.plan().assignments().to_vec(),
        })),
        ShardRequest::ThresholdPairs { measure, op, tau } => {
            pair_chunks(sm, *measure, Filter::Threshold { op: *op, tau: *tau })
        }
        ShardRequest::RangePairs { measure, lo, hi } => {
            pair_chunks(sm, *measure, Filter::Range { lo: *lo, hi: *hi })
        }
        ShardRequest::ThresholdSeries { measure, op, tau } => {
            keyed_series(sm, *measure, Filter::Threshold { op: *op, tau: *tau })
        }
        ShardRequest::RangeSeries { measure, lo, hi } => {
            keyed_series(sm, *measure, Filter::Range { lo: *lo, hi: *hi })
        }
        ShardRequest::LocationValues { measure, ids } => {
            let mut values = Vec::with_capacity(ids.len());
            for &v in ids {
                values.push(
                    sm.location_value(*measure, v as usize)
                        .map_err(AnswerError::Core)?,
                );
            }
            Ok(ShardResponse::Values(values))
        }
        ShardRequest::PairValues { measure, pairs } => {
            let mut values = Vec::with_capacity(pairs.len());
            for &(u, v) in pairs {
                // Wire decode guarantees u < v, so the literal upholds
                // the SequencePair invariant without the asserting
                // constructor.
                let pair = SequencePair {
                    u: u as usize,
                    v: v as usize,
                };
                values.push(if sm.has_pair(pair) {
                    Some(sm.pair_value(*measure, pair).map_err(AnswerError::Core)?)
                } else {
                    None
                });
            }
            Ok(ShardResponse::MaybeValues(values))
        }
        ShardRequest::DiagValues { measure, ids } => {
            let mut values = Vec::with_capacity(ids.len());
            for &v in ids {
                values.push(
                    model
                        .diag_value(*measure, v as usize)
                        .ok_or(AnswerError::Core(CoreError::UnknownSeries {
                            id: v as usize,
                            series: n,
                        }))?,
                );
            }
            Ok(ShardResponse::Values(values))
        }
        ShardRequest::ScanPairs { measure } => {
            let mut entries = Vec::with_capacity(sm.affine().len());
            for rel in sm.affine().relationships() {
                // Errors drop the pair, exactly as the local fallback
                // scan does.
                if let Ok(x) = sm.pair_value(*measure, rel.pair) {
                    entries.push((rel.pair.u as u32, rel.pair.v as u32, x));
                }
            }
            Ok(ShardResponse::ScanPairs(entries))
        }
        ShardRequest::ScanSeries { measure } => {
            let mut entries = Vec::with_capacity(sm.owned().len());
            for &v in sm.owned() {
                if let Ok(x) = sm.location_value(*measure, v as usize) {
                    entries.push((v, x));
                }
            }
            Ok(ShardResponse::ScanSeries(entries))
        }
    }
}

/// The shard's grouped pair answer, each chunk tagged with its global
/// pivot ordinal and narrowed to the wire shape.
fn pair_chunks(
    sm: &ShardModel,
    measure: PairwiseMeasure,
    filter: Filter,
) -> Result<ShardResponse, AnswerError> {
    let chunks = sm
        .index()
        .search_pairs_grouped(measure, filter, &|| false)
        .map_err(AnswerError::Scape)?;
    let ordinals = sm.ordinals();
    let mut out = Vec::with_capacity(chunks.len());
    for (q, chunk) in chunks {
        let ord = ordinals
            .get(q)
            .copied()
            .ok_or_else(|| AnswerError::BadRequest(format!("pivot {q} has no global ordinal")))?;
        out.push((
            ord,
            chunk
                .iter()
                .map(|p| (p.u as u32, p.v as u32))
                .collect::<Vec<_>>(),
        ));
    }
    Ok(ShardResponse::PairChunks(out))
}

/// The shard's per-cluster keyed series answer, narrowed to the wire
/// shape.
fn keyed_series(
    sm: &ShardModel,
    measure: LocationMeasure,
    filter: Filter,
) -> Result<ShardResponse, AnswerError> {
    let clusters = sm
        .index()
        .search_series_keyed(measure, filter)
        .map_err(AnswerError::Scape)?;
    Ok(ShardResponse::KeyedSeries(
        clusters
            .into_iter()
            .map(|entries| entries.into_iter().map(|(xi, v)| (xi, v as u32)).collect())
            .collect(),
    ))
}

/// The in-process backend: calls [`answer`] directly against a local
/// [`ShardedModel`]. Used by the oracle test (same merge code, no
/// network) and available for single-process deployments.
pub struct InProcBackend {
    model: ShardedModel,
    shard: usize,
    stats: Arc<CoordStats>,
}

impl InProcBackend {
    /// Wrap shard `shard` of `model`. The model is cloned cheaply (its
    /// shards are `Arc`-shared).
    pub fn new(model: &ShardedModel, shard: usize, stats: Arc<CoordStats>) -> InProcBackend {
        InProcBackend {
            model: model.clone(),
            shard,
            stats,
        }
    }
}

impl ShardBackend for InProcBackend {
    fn shard(&self) -> usize {
        self.shard
    }

    fn call(&self, req: &ShardRequest) -> Result<ShardResponse, BackendError> {
        CoordStats::bump(&self.stats.routed);
        // In-process calls always complete a round-trip: both outcomes
        // count as `merged` attempts (a typed error is an answer).
        CoordStats::bump(&self.stats.merged);
        answer(&self.model, self.shard, 0, 0, req).map_err(|e| BackendError::Remote {
            shard: self.shard,
            code: e.wire_code().to_string(),
            message: e.to_string(),
        })
    }
}
