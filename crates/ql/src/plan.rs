//! The statement planner: parse → resolve labels → choose the index or
//! a scan → dispatch → render labels, and `EXPLAIN`.
//!
//! It runs over [`QueryModel`], the handful of primitives a model
//! answers. Three models implement it: the global engine + index and a
//! [`ShardedModel`](affinity_shard::ShardedModel) (both behind
//! [`Session`](crate::Session)), and the distributed coordinator's
//! per-statement fleet adapter. Planning exists once, so the three
//! cannot disagree on a plan, a label, or an error text.

use crate::cancel::{CancelCause, CancelToken};
use crate::parser::{parse, Statement};
use crate::session::{QlError, QueryOutput};
use affinity_core::measures::{LocationMeasure, Measure, PairwiseMeasure};
use affinity_data::{SequencePair, SeriesId};
use affinity_linalg::Matrix;
use affinity_scape::ThresholdOp;

/// The row predicate of a MET or MER statement.
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

impl Filter {
    /// Whether `x` passes — the test a fallback scan applies per value.
    pub fn keep(&self, x: f64) -> bool {
        match *self {
            Filter::Threshold {
                op: ThresholdOp::Greater,
                tau,
            } => x > tau,
            Filter::Threshold {
                op: ThresholdOp::Less,
                tau,
            } => x < tau,
            Filter::Range { lo, hi } => lo < x && x < hi,
        }
    }
}

/// The query primitives a statement plan runs on. Ids handed in are
/// already resolved and in range; answers come back in the global
/// (monolithic) order so the planner only renders them. Errors are the
/// model's own; a stopped token or repeated pairwise ids fail typed.
pub trait QueryModel {
    /// The model's error type; planner errors convert into it.
    type Error: From<QlError>;

    /// `true` when the model's index answers `measure` (MET/MER then
    /// search the index instead of scanning).
    fn indexed(&self, measure: Measure) -> bool;

    /// Shard count of a sharded model; used only by `EXPLAIN`.
    fn shards(&self) -> Option<usize>;

    /// MEC location values in `ids` order. `None` marks a row the model
    /// could not reach (a down shard); the planner drops it.
    fn location(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
    ) -> Result<Vec<Option<f64>>, Self::Error>;

    /// MEC pairwise matrix over `ids`.
    fn pairwise(&self, measure: PairwiseMeasure, ids: &[SeriesId]) -> Result<Matrix, Self::Error>;

    /// Indexed MET/MER over a pairwise measure.
    fn search_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, Self::Error>;

    /// Indexed MET/MER over a location measure.
    fn search_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SeriesId>, Self::Error>;

    /// Fallback MET/MER: every pair whose `W_A` value passes `filter`,
    /// `(u, v)` ascending.
    fn scan_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, Self::Error>;

    /// Fallback MET/MER: every series whose `W_A` value passes
    /// `filter`, ascending.
    fn scan_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SeriesId>, Self::Error>;
}

/// Parse and execute one statement against `model`, resolving series
/// references against `labels`.
///
/// # Errors
/// Parse, resolution and range errors as [`QlError`]s converted into
/// the model's error; everything else as the model reports it.
pub fn execute<M: QueryModel + ?Sized>(
    model: &M,
    labels: &[String],
    query: &str,
    token: &CancelToken,
) -> Result<QueryOutput, M::Error> {
    run(model, labels, parse(query).map_err(QlError::from)?, token)
}

/// Execute a pre-parsed statement; see [`execute`].
///
/// # Errors
/// See [`execute`].
pub fn run<M: QueryModel + ?Sized>(
    model: &M,
    labels: &[String],
    statement: Statement,
    token: &CancelToken,
) -> Result<QueryOutput, M::Error> {
    if token.should_stop() {
        return Err(cancel_error(token).into());
    }
    match statement {
        Statement::Explain(inner) => Ok(QueryOutput::Plan(explain(model, &inner))),
        Statement::Mec { measure, series } => {
            let ids = series
                .iter()
                .map(|s| resolve(labels, s))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(match measure {
                Measure::Location(l) => QueryOutput::Values(
                    ids.iter()
                        .zip(model.location(l, &ids)?)
                        .filter_map(|(&v, x)| x.map(|x| (label(labels, v), x)))
                        .collect(),
                ),
                Measure::Pairwise(p) => QueryOutput::PairMatrix {
                    matrix: model.pairwise(p, &ids)?,
                    labels: ids.iter().map(|&v| label(labels, v)).collect(),
                },
            })
        }
        Statement::Met {
            measure,
            greater,
            tau,
        } => {
            let op = if greater {
                ThresholdOp::Greater
            } else {
                ThresholdOp::Less
            };
            select(model, labels, measure, Filter::Threshold { op, tau }, token)
        }
        Statement::Mer { measure, lo, hi } => {
            if lo > hi {
                return Err(QlError::EmptyRange { lo, hi }.into());
            }
            select(model, labels, measure, Filter::Range { lo, hi }, token)
        }
    }
}

/// MET/MER: the index when it covers the measure, a scan otherwise.
fn select<M: QueryModel + ?Sized>(
    model: &M,
    labels: &[String],
    measure: Measure,
    filter: Filter,
    token: &CancelToken,
) -> Result<QueryOutput, M::Error> {
    let indexed = model.indexed(measure);
    Ok(match measure {
        Measure::Pairwise(p) => {
            let pairs = if indexed {
                model.search_pairs(p, filter, token)?
            } else {
                model.scan_pairs(p, filter, token)?
            };
            QueryOutput::Pairs(
                pairs
                    .into_iter()
                    .map(|p| (label(labels, p.u), label(labels, p.v)))
                    .collect(),
            )
        }
        Measure::Location(l) => {
            let series = if indexed {
                model.search_series(l, filter, token)?
            } else {
                model.scan_series(l, filter, token)?
            };
            QueryOutput::Series(series.into_iter().map(|v| label(labels, v)).collect())
        }
    })
}

/// Describe how a statement would execute (the `EXPLAIN` output).
fn explain<M: QueryModel + ?Sized>(model: &M, statement: &Statement) -> String {
    let shards = model.shards();
    match statement {
        Statement::Explain(inner) => explain(model, inner),
        Statement::Mec { measure, series } => format!(
            "MEC {}: MecEngine (W_A) over {} series; pivot statistics from hash map, O(1) per value{}",
            measure.name(),
            series.len(),
            if shards.is_some() {
                "; routed to owning shard"
            } else {
                ""
            }
        ),
        Statement::Met { measure, .. } | Statement::Mer { measure, .. } => {
            let kind = if matches!(statement, Statement::Met { .. }) {
                "MET"
            } else {
                "MER"
            };
            // Every plan line says when a cross-shard merge participates.
            let sharded = shards
                .map(|k| format!("; merged across {k} shards"))
                .unwrap_or_default();
            if model.indexed(*measure) {
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

/// Resolve a series reference: exact label match first, then numeric
/// id.
fn resolve(labels: &[String], reference: &str) -> Result<SeriesId, QlError> {
    if let Some(v) = labels.iter().position(|l| l == reference) {
        return Ok(v);
    }
    match reference.parse::<usize>() {
        Ok(id) if id < labels.len() => Ok(id),
        _ => Err(QlError::UnknownSeries(reference.to_string())),
    }
}

/// Label of an id a model returned. Rendering must not be able to panic
/// on a stale or corrupt id, so it falls back to the numeric form.
fn label(labels: &[String], v: SeriesId) -> String {
    labels
        .get(v)
        .cloned()
        .unwrap_or_else(|| format!("series-{v}"))
}

/// The typed error for a stopped token.
pub(crate) fn cancel_error(token: &CancelToken) -> QlError {
    match token.cause() {
        Some(CancelCause::DeadlineExceeded) => QlError::DeadlineExceeded,
        _ => QlError::Cancelled,
    }
}
