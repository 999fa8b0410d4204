//! Query execution: plan parsed statements against the framework.

use crate::cancel::{CancelCause, CancelToken};
use crate::parser::{parse, ParseError, Statement};
use affinity_core::measures::{LocationMeasure, Measure, PairwiseMeasure};
use affinity_core::mec::MecEngine;
use affinity_core::symex::AffineSet;
use affinity_data::{DataMatrix, SequencePair, SeriesId, SeriesSource};
use affinity_linalg::Matrix;
use affinity_scape::{ScapeError, ScapeIndex, ThresholdOp};
use affinity_shard::ShardedModel;
use affinity_stream::PersistedModel;
use std::fmt;

/// Errors raised by query execution.
#[derive(Debug)]
pub enum QlError {
    /// The statement failed to parse.
    Parse(ParseError),
    /// A series reference (label or id) did not resolve.
    UnknownSeries(String),
    /// A range query with `lo > hi`.
    EmptyRange {
        /// Lower bound as written.
        lo: f64,
        /// Upper bound as written.
        hi: f64,
    },
    /// Execution was cancelled via its [`CancelToken`] (the caller gave
    /// up, the request was shed, or the server is shutting down).
    Cancelled,
    /// The [`CancelToken`] deadline passed before execution finished.
    DeadlineExceeded,
    /// Internal engine error (should not occur for a valid session).
    Engine(String),
}

impl fmt::Display for QlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QlError::Parse(e) => write!(f, "parse error: {e}"),
            QlError::UnknownSeries(s) => write!(f, "unknown series '{s}'"),
            QlError::EmptyRange { lo, hi } => {
                write!(f, "empty range: {lo} > {hi}")
            }
            QlError::Cancelled => write!(f, "query cancelled"),
            QlError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            QlError::Engine(msg) => write!(f, "engine error: {msg}"),
        }
    }
}

impl QlError {
    /// Stable one-token wire-protocol code for this error, shared by
    /// every network front-end (the serve line protocol and the
    /// coordinator) so clients can match on a closed set.
    pub fn wire_code(&self) -> &'static str {
        match self {
            QlError::Parse(_) => "PARSE",
            QlError::UnknownSeries(_) => "UNKNOWN",
            QlError::EmptyRange { .. } => "RANGE",
            QlError::Cancelled => "CANCELLED",
            QlError::DeadlineExceeded => "DEADLINE",
            QlError::Engine(_) => "INTERNAL",
        }
    }
}

impl std::error::Error for QlError {}

impl From<ParseError> for QlError {
    fn from(e: ParseError) -> Self {
        QlError::Parse(e)
    }
}

/// Series labels for a model of `n` series: an empty list becomes the
/// generated `S0..S{n-1}`, any other list must name exactly `n` series.
/// The one rule every session constructor and the coordinator apply.
///
/// # Errors
/// The bare message `"<given> labels for <n> series"` on a length
/// mismatch; each caller wraps it in its own error type.
pub fn series_labels(labels: Vec<String>, n: usize) -> Result<Vec<String>, String> {
    if labels.is_empty() {
        Ok((0..n).map(|v| format!("S{v}")).collect())
    } else if labels.len() == n {
        Ok(labels)
    } else {
        Err(format!("{} labels for {n} series", labels.len()))
    }
}

/// Result of executing a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// MEC over a location measure: `(label, value)` per requested series.
    Values(Vec<(String, f64)>),
    /// MEC over a pairwise measure: requested labels + the `|ψ|×|ψ|`
    /// matrix.
    PairMatrix {
        /// Labels in request order.
        labels: Vec<String>,
        /// The measure matrix.
        matrix: Matrix,
    },
    /// MET/MER over a pairwise measure: qualifying pairs by label.
    Pairs(Vec<(String, String)>),
    /// MET/MER over a location measure: qualifying series by label.
    Series(Vec<String>),
    /// `EXPLAIN`: a one-line description of the chosen plan.
    Plan(String),
}

impl fmt::Display for QueryOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryOutput::Values(vs) => {
                for (label, v) in vs {
                    writeln!(f, "{label}\t{v:.6}")?;
                }
                Ok(())
            }
            QueryOutput::PairMatrix { labels, matrix } => {
                write!(f, " ")?;
                for l in labels {
                    write!(f, "\t{l}")?;
                }
                writeln!(f)?;
                for (i, l) in labels.iter().enumerate() {
                    write!(f, "{l}")?;
                    for j in 0..labels.len() {
                        write!(f, "\t{:.6}", matrix.get(i, j))?;
                    }
                    writeln!(f)?;
                }
                Ok(())
            }
            QueryOutput::Pairs(ps) => {
                writeln!(f, "{} pairs", ps.len())?;
                for (a, b) in ps {
                    writeln!(f, "{a}\t{b}")?;
                }
                Ok(())
            }
            QueryOutput::Series(ss) => {
                writeln!(f, "{} series", ss.len())?;
                for s in ss {
                    writeln!(f, "{s}")?;
                }
                Ok(())
            }
            QueryOutput::Plan(p) => writeln!(f, "{p}"),
        }
    }
}

/// A query session: series labels, the MEC engine over the affine
/// relationships, and a SCAPE index over a chosen measure set.
///
/// Planning rule: MET/MER statements run on the SCAPE index when the
/// measure was indexed, and fall back to scanning `W_A` values otherwise;
/// MEC statements always run on the MEC engine.
///
/// The session holds **no reference to raw series data** — after
/// construction every query is answered from the model alone, which is
/// what makes [`Session::from_source`] (fully out-of-core construction)
/// possible.
///
/// A session answers from one of two backends: a **global** model (one
/// MEC engine + one SCAPE index) or a borrowed **sharded** model
/// ([`Session::from_sharded`]), whose cross-shard merge layer returns
/// answers bit-identical to the global backend's.
pub struct Session<'a> {
    labels: Vec<String>,
    backend: Backend<'a>,
}

/// The model a session answers from.
enum Backend<'a> {
    /// The monolithic path: one engine, one index. The index is boxed
    /// to keep the enum near the size of its slimmest variant.
    Global {
        engine: MecEngine<'a>,
        index: Box<ScapeIndex>,
    },
    /// The sharded path: per-shard engines/indexes behind the exact
    /// merge layer. Borrowed, so one resident model can serve many
    /// sessions.
    Sharded(&'a ShardedModel),
}

impl<'a> Session<'a> {
    /// Open a session, building the MEC engine and a SCAPE index over
    /// `indexed` measures (pass `&Measure::ALL` or `&Measure::EXTENDED`
    /// for everything, `&[]` for no index).
    ///
    /// # Errors
    /// [`QlError::Engine`] when the index cannot be built (e.g. `affine`
    /// was not computed over `data`).
    pub fn new(
        data: &DataMatrix,
        affine: &'a AffineSet,
        indexed: &[Measure],
    ) -> Result<Self, QlError> {
        Self::from_source(data, data.labels().to_vec(), affine, indexed)
    }

    /// Open a session whose model construction streams columns through
    /// any [`SeriesSource`] — e.g. an on-disk `MatrixStore` or a
    /// bounded-memory `CachedStore` — so the matrix is never resident.
    /// `labels` provides the series names statements resolve against
    /// (a store keeps them in its header).
    ///
    /// The construction passes announce their column sequences via
    /// [`SeriesSource::prefetch`], so handing this a `CachedStore`
    /// built with a prefetch worker (the CLI's `--ooc --prefetch`
    /// combination) overlaps the session's cold reads with its
    /// preprocessing arithmetic; the session built is bit-for-bit the
    /// same either way.
    ///
    /// # Errors
    /// [`QlError::Engine`] on label/shape mismatches, fetch failures,
    /// or index-construction failures.
    pub fn from_source<S: SeriesSource + ?Sized>(
        source: &S,
        labels: Vec<String>,
        affine: &'a AffineSet,
        indexed: &[Measure],
    ) -> Result<Self, QlError> {
        if labels.len() != affine.series_count() {
            return Err(QlError::Engine(format!(
                "{} labels for {} series",
                labels.len(),
                affine.series_count()
            )));
        }
        Ok(Session {
            labels,
            backend: Backend::Global {
                engine: MecEngine::from_source(source, affine)
                    .map_err(|e| QlError::Engine(e.to_string()))?,
                index: Box::new(
                    ScapeIndex::build_from_source(
                        source,
                        affine,
                        indexed,
                        &affinity_par::ThreadPool::new(1),
                    )
                    .map_err(|e| QlError::Engine(e.to_string()))?,
                ),
            },
        })
    }

    /// Open a session over a sharded model: statements execute against
    /// the per-shard engines/indexes through the cross-shard merge
    /// layer, and every answer is bit-identical to a session over the
    /// unsharded model the shards were partitioned from.
    ///
    /// `labels` may be empty to auto-generate `S0..S{n-1}`.
    ///
    /// # Errors
    /// [`QlError::Engine`] when `labels` is non-empty but does not
    /// match the model's series count.
    pub fn from_sharded(model: &'a ShardedModel, labels: Vec<String>) -> Result<Self, QlError> {
        Ok(Session {
            labels: series_labels(labels, model.series_count()).map_err(QlError::Engine)?,
            backend: Backend::Sharded(model),
        })
    }

    /// Open a session over a crash-recovered model
    /// ([`affinity_stream::open_model`]) in O(model bytes): the MEC
    /// engine is rebuilt from the restored reference data + affine set
    /// and the persisted SCAPE index is deep-copied — no clustering,
    /// fitting, or index construction is re-run, and every answer is
    /// bit-identical to a session over the live engine's model.
    ///
    /// `labels` names the series for statement resolution; pass an
    /// empty vector to auto-generate `S0..S{n-1}` (numeric-id
    /// references always work).
    ///
    /// # Errors
    /// [`QlError::Engine`] when `labels` is non-empty but does not
    /// match the model's series count.
    pub fn open_snapshot(model: &'a PersistedModel, labels: Vec<String>) -> Result<Self, QlError> {
        Ok(Session {
            labels: series_labels(labels, model.affine.series_count()).map_err(QlError::Engine)?,
            backend: Backend::Global {
                engine: MecEngine::new(&model.data, &model.affine),
                index: Box::new(model.index.clone()),
            },
        })
    }

    /// Open a session directly over already-built model parts — the
    /// constructor the serving layer's epoch publication uses. `data`
    /// is the reference matrix `affine` was computed over; it is only
    /// read during engine preprocessing (the session itself keeps no
    /// reference to it). `index` is an already-built SCAPE index over
    /// the same model, moved in — no index construction runs.
    ///
    /// `labels` may be empty to auto-generate `S0..S{n-1}`.
    ///
    /// # Errors
    /// [`QlError::Engine`] when `labels` is non-empty but does not
    /// match the affine set's series count.
    pub fn from_parts(
        data: &DataMatrix,
        affine: &'a AffineSet,
        index: ScapeIndex,
        labels: Vec<String>,
    ) -> Result<Self, QlError> {
        Ok(Session {
            labels: series_labels(labels, affine.series_count()).map_err(QlError::Engine)?,
            backend: Backend::Global {
                engine: MecEngine::new(data, affine),
                index: Box::new(index),
            },
        })
    }

    /// Resolve a series reference: exact label match first, then numeric
    /// id.
    fn resolve(&self, reference: &str) -> Result<SeriesId, QlError> {
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
        Err(QlError::UnknownSeries(reference.to_string()))
    }

    fn label(&self, v: SeriesId) -> String {
        // Ids come back from the engine, but label rendering must not be
        // able to panic on a stale or corrupt id — fall back to the
        // numeric form instead.
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

    /// Parse and execute one statement.
    ///
    /// # Errors
    /// See [`QlError`].
    pub fn execute(&self, query: &str) -> Result<QueryOutput, QlError> {
        self.run(parse(query)?)
    }

    /// Parse and execute one statement under a [`CancelToken`]: long
    /// scans poll the token between pruning bands (indexed plans) or
    /// rows (fallback scans) and abort with [`QlError::Cancelled`] /
    /// [`QlError::DeadlineExceeded`] instead of running to completion.
    ///
    /// # Errors
    /// See [`QlError`].
    pub fn execute_with(&self, query: &str, token: &CancelToken) -> Result<QueryOutput, QlError> {
        self.run_with(parse(query)?, token)
    }

    /// Execute a pre-parsed statement.
    ///
    /// # Errors
    /// See [`QlError`].
    pub fn run(&self, statement: Statement) -> Result<QueryOutput, QlError> {
        self.run_with(statement, &CancelToken::new())
    }

    /// Translate the token's cause into the matching typed error.
    fn cancel_error(token: &CancelToken) -> QlError {
        match token.cause() {
            Some(CancelCause::DeadlineExceeded) => QlError::DeadlineExceeded,
            _ => QlError::Cancelled,
        }
    }

    /// Map an index error, routing [`ScapeError::Cancelled`] to the
    /// token's cause and everything else to [`QlError::Engine`].
    fn map_scape(e: ScapeError, token: &CancelToken) -> QlError {
        match e {
            ScapeError::Cancelled => Self::cancel_error(token),
            other => QlError::Engine(other.to_string()),
        }
    }

    // --- Backend dispatch ------------------------------------------
    //
    // Each helper forwards one query primitive to whichever backend the
    // session holds; the sharded merge layer's answers are bit-identical
    // to the global backend's, so planning above this line is
    // backend-oblivious.

    /// `true` when the backend's index covers `measure`.
    fn indexed(&self, measure: Measure) -> bool {
        match &self.backend {
            Backend::Global { index, .. } => index.supports(measure),
            Backend::Sharded(m) => m.supports(measure),
        }
    }

    /// Shard count when sharded (used only by `EXPLAIN` rendering).
    fn shard_count(&self) -> Option<usize> {
        match &self.backend {
            Backend::Global { .. } => None,
            Backend::Sharded(m) => Some(m.plan().shards()),
        }
    }

    fn location_values(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
    ) -> Result<Vec<f64>, QlError> {
        match &self.backend {
            Backend::Global { engine, .. } => engine.location(measure, ids),
            Backend::Sharded(m) => m.location(measure, ids),
        }
        .map_err(|e| QlError::Engine(e.to_string()))
    }

    fn pairwise_matrix(
        &self,
        measure: PairwiseMeasure,
        ids: &[SeriesId],
    ) -> Result<Matrix, QlError> {
        match &self.backend {
            Backend::Global { engine, .. } => engine.pairwise(measure, ids),
            Backend::Sharded(m) => m.pairwise(measure, ids),
        }
        .map_err(|e| QlError::Engine(e.to_string()))
    }

    fn threshold_pairs(
        &self,
        measure: PairwiseMeasure,
        op: ThresholdOp,
        tau: f64,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, QlError> {
        let stop = || token.should_stop();
        match &self.backend {
            Backend::Global { index, .. } => index.threshold_pairs_with(measure, op, tau, &stop),
            Backend::Sharded(m) => m.threshold_pairs_with(measure, op, tau, &stop),
        }
        .map_err(|e| Self::map_scape(e, token))
    }

    fn range_pairs(
        &self,
        measure: PairwiseMeasure,
        lo: f64,
        hi: f64,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, QlError> {
        let stop = || token.should_stop();
        match &self.backend {
            Backend::Global { index, .. } => index.range_pairs_with(measure, lo, hi, &stop),
            Backend::Sharded(m) => m.range_pairs_with(measure, lo, hi, &stop),
        }
        .map_err(|e| Self::map_scape(e, token))
    }

    fn threshold_series_indexed(
        &self,
        measure: LocationMeasure,
        op: ThresholdOp,
        tau: f64,
    ) -> Result<Vec<SeriesId>, QlError> {
        match &self.backend {
            Backend::Global { index, .. } => index.threshold_series(measure, op, tau),
            Backend::Sharded(m) => m.threshold_series(measure, op, tau),
        }
        .map_err(|e| QlError::Engine(e.to_string()))
    }

    fn range_series_indexed(
        &self,
        measure: LocationMeasure,
        lo: f64,
        hi: f64,
    ) -> Result<Vec<SeriesId>, QlError> {
        match &self.backend {
            Backend::Global { index, .. } => index.range_series(measure, lo, hi),
            Backend::Sharded(m) => m.range_series(measure, lo, hi),
        }
        .map_err(|e| QlError::Engine(e.to_string()))
    }

    /// One pairwise value for the fallback scan; errors mean "drop the
    /// pair", matching the global scan's behavior.
    fn scan_pair_value(&self, measure: PairwiseMeasure, pair: SequencePair) -> Option<f64> {
        match &self.backend {
            Backend::Global { engine, .. } => engine.pair_value(measure, pair).ok(),
            Backend::Sharded(m) => m.pair_value(measure, pair).ok(),
        }
    }

    /// One location value for the fallback scan.
    fn scan_location_value(&self, measure: LocationMeasure, v: SeriesId) -> Option<f64> {
        match &self.backend {
            Backend::Global { engine, .. } => engine.location_value(measure, v).ok(),
            Backend::Sharded(m) => m.location_value(measure, v).ok(),
        }
    }

    /// Execute a pre-parsed statement under a [`CancelToken`]; see
    /// [`execute_with`](Session::execute_with).
    ///
    /// # Errors
    /// See [`QlError`].
    pub fn run_with(
        &self,
        statement: Statement,
        token: &CancelToken,
    ) -> Result<QueryOutput, QlError> {
        if token.should_stop() {
            return Err(Self::cancel_error(token));
        }
        match statement {
            Statement::Explain(inner) => Ok(QueryOutput::Plan(self.plan(&inner))),
            Statement::Mec { measure, series } => {
                let ids: Vec<SeriesId> = series
                    .iter()
                    .map(|s| self.resolve(s))
                    .collect::<Result<_, _>>()?;
                match measure {
                    Measure::Location(l) => {
                        let values = self.location_values(l, &ids)?;
                        Ok(QueryOutput::Values(
                            ids.iter()
                                .zip(values)
                                .map(|(&v, x)| (self.label(v), x))
                                .collect(),
                        ))
                    }
                    Measure::Pairwise(p) => Ok(QueryOutput::PairMatrix {
                        labels: ids.iter().map(|&v| self.label(v)).collect(),
                        matrix: self.pairwise_matrix(p, &ids)?,
                    }),
                }
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
                match measure {
                    Measure::Pairwise(p) => {
                        let pairs = if self.indexed(measure) {
                            self.threshold_pairs(p, op, tau, token)?
                        } else {
                            self.scan_pairs(
                                p,
                                |v| match op {
                                    ThresholdOp::Greater => v > tau,
                                    ThresholdOp::Less => v < tau,
                                },
                                token,
                            )?
                        };
                        Ok(QueryOutput::Pairs(self.pair_labels(pairs)))
                    }
                    Measure::Location(l) => {
                        let series = if self.indexed(measure) {
                            self.threshold_series_indexed(l, op, tau)?
                        } else {
                            self.scan_series(
                                l,
                                |v| match op {
                                    ThresholdOp::Greater => v > tau,
                                    ThresholdOp::Less => v < tau,
                                },
                                token,
                            )?
                        };
                        Ok(QueryOutput::Series(
                            series.into_iter().map(|v| self.label(v)).collect(),
                        ))
                    }
                }
            }
            Statement::Mer { measure, lo, hi } => {
                if lo > hi {
                    return Err(QlError::EmptyRange { lo, hi });
                }
                match measure {
                    Measure::Pairwise(p) => {
                        let pairs = if self.indexed(measure) {
                            self.range_pairs(p, lo, hi, token)?
                        } else {
                            self.scan_pairs(p, |v| lo < v && v < hi, token)?
                        };
                        Ok(QueryOutput::Pairs(self.pair_labels(pairs)))
                    }
                    Measure::Location(l) => {
                        let series = if self.indexed(measure) {
                            self.range_series_indexed(l, lo, hi)?
                        } else {
                            self.scan_series(l, |v| lo < v && v < hi, token)?
                        };
                        Ok(QueryOutput::Series(
                            series.into_iter().map(|v| self.label(v)).collect(),
                        ))
                    }
                }
            }
        }
    }

    /// Describe how a statement would execute (the `EXPLAIN` output).
    fn plan(&self, statement: &Statement) -> String {
        // Rendered once so every plan line says when a cross-shard
        // merge participates in the answer.
        let sharded = self
            .shard_count()
            .map(|k| format!("; merged across {k} shards"))
            .unwrap_or_default();
        match statement {
            Statement::Explain(inner) => self.plan(inner),
            Statement::Mec { measure, series } => format!(
                "MEC {}: MecEngine (W_A) over {} series; pivot statistics from hash map, O(1) per value{}",
                measure.name(),
                series.len(),
                if self.shard_count().is_some() {
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

    /// Fallback plan: filter `W_A` values over all pairs, polling the
    /// token once per anchor row.
    fn scan_pairs(
        &self,
        measure: PairwiseMeasure,
        keep: impl Fn(f64) -> bool,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, QlError> {
        let n = self.labels.len();
        let mut out = Vec::new();
        for u in 0..n {
            if token.should_stop() {
                return Err(Self::cancel_error(token));
            }
            for v in u + 1..n {
                let p = SequencePair::new(u, v);
                // A full-set engine answers every pair; if it ever does
                // not, drop the pair rather than panic mid-query.
                if self.scan_pair_value(measure, p).is_some_and(&keep) {
                    out.push(p);
                }
            }
        }
        Ok(out)
    }

    /// Fallback plan: filter `W_A` values over all series.
    fn scan_series(
        &self,
        measure: LocationMeasure,
        keep: impl Fn(f64) -> bool,
        token: &CancelToken,
    ) -> Result<Vec<SeriesId>, QlError> {
        if token.should_stop() {
            return Err(Self::cancel_error(token));
        }
        Ok((0..self.labels.len())
            .filter(|&v| self.scan_location_value(measure, v).is_some_and(&keep))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_core::prelude::*;
    use affinity_data::generator::{stock_dataset, StockConfig};

    fn fixture() -> (DataMatrix, AffineSet) {
        let data = stock_dataset(&StockConfig::reduced(14, 60));
        let affine = Symex::new(SymexParams::default()).run(&data).unwrap();
        (data, affine)
    }

    #[test]
    fn mec_location_by_label_and_id() {
        let (data, affine) = fixture();
        let s = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let out = s.execute("MEC mean OF STK0, 3").unwrap();
        match out {
            QueryOutput::Values(vs) => {
                assert_eq!(vs.len(), 2);
                assert_eq!(vs[0].0, "STK0");
                assert_eq!(vs[1].0, "STK3");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mec_pairwise_returns_symmetric_matrix() {
        let (data, affine) = fixture();
        let s = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let out = s.execute("MEC correlation OF STK0 STK1 STK2").unwrap();
        match out {
            QueryOutput::PairMatrix { labels, matrix } => {
                assert_eq!(labels, vec!["STK0", "STK1", "STK2"]);
                assert_eq!(matrix.rows(), 3);
                assert_eq!(matrix.get(0, 0), 1.0);
                assert_eq!(matrix.get(0, 1), matrix.get(1, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn met_uses_index_and_matches_fallback() {
        let (data, affine) = fixture();
        let indexed = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let bare = Session::new(&data, &affine, &[]).unwrap();
        for q in [
            "MET correlation > 0.8",
            "MET covariance < 0",
            "MET median > 100",
        ] {
            let a = indexed.execute(q).unwrap();
            let b = bare.execute(q).unwrap();
            let norm = |o: QueryOutput| match o {
                QueryOutput::Pairs(mut p) => {
                    p.sort();
                    format!("{p:?}")
                }
                QueryOutput::Series(mut s) => {
                    s.sort();
                    format!("{s:?}")
                }
                other => format!("{other:?}"),
            };
            assert_eq!(norm(a), norm(b), "query {q}");
        }
    }

    #[test]
    fn mer_and_extended_measures() {
        let (data, affine) = fixture();
        let s = Session::new(&data, &affine, &Measure::EXTENDED).unwrap();
        let out = s.execute("MER cosine BETWEEN 0.999 AND 1.0").unwrap();
        assert!(matches!(out, QueryOutput::Pairs(_)));
        let out = s.execute("MET dice > 0.99").unwrap();
        assert!(matches!(out, QueryOutput::Pairs(_)));
        let out = s.execute("MER mode BETWEEN 0 AND 10000").unwrap();
        match out {
            QueryOutput::Series(ss) => assert_eq!(ss.len(), data.series_count()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn errors_are_reported() {
        let (data, affine) = fixture();
        let s = Session::new(&data, &affine, &Measure::ALL).unwrap();
        assert!(matches!(
            s.execute("MEC mean OF NOPE"),
            Err(QlError::UnknownSeries(_))
        ));
        assert!(matches!(
            s.execute("MER corr BETWEEN 1 AND 0"),
            Err(QlError::EmptyRange { .. })
        ));
        assert!(matches!(s.execute("HELLO"), Err(QlError::Parse(_))));
        let e = s.execute("MEC mean OF NOPE").unwrap_err();
        assert!(e.to_string().contains("NOPE"));
    }

    #[test]
    fn explain_reports_plan_choice() {
        let (data, affine) = fixture();
        let indexed = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let bare = Session::new(&data, &affine, &[]).unwrap();
        let p1 = indexed.execute("EXPLAIN MET correlation > 0.9").unwrap();
        match &p1 {
            QueryOutput::Plan(text) => {
                assert!(text.contains("SCAPE"), "{text}");
                assert!(text.contains("pruning"), "{text}");
            }
            other => panic!("unexpected {other:?}"),
        }
        let p2 = bare.execute("EXPLAIN MET correlation > 0.9").unwrap();
        match &p2 {
            QueryOutput::Plan(text) => assert!(text.contains("full scan"), "{text}"),
            other => panic!("unexpected {other:?}"),
        }
        let p3 = indexed.execute("EXPLAIN MEC mean OF STK0").unwrap();
        match &p3 {
            QueryOutput::Plan(text) => assert!(text.contains("MecEngine"), "{text}"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(p1.to_string().contains("SCAPE"));
    }

    #[test]
    fn cancelled_and_expired_tokens_yield_typed_errors() {
        let (data, affine) = fixture();
        let indexed = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let bare = Session::new(&data, &affine, &[]).unwrap();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let expired = CancelToken::until(std::time::Instant::now());
        for s in [&indexed, &bare] {
            for q in ["MET correlation > 0.5", "MER covariance BETWEEN -1 AND 1"] {
                assert!(matches!(
                    s.execute_with(q, &cancelled),
                    Err(QlError::Cancelled)
                ));
                assert!(matches!(
                    s.execute_with(q, &expired),
                    Err(QlError::DeadlineExceeded)
                ));
            }
        }
        // A live token is answer-preserving.
        let live = CancelToken::with_deadline(std::time::Duration::from_secs(3600));
        let a = indexed.execute("MET correlation > 0.5").unwrap();
        let b = indexed
            .execute_with("MET correlation > 0.5", &live)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_matches_full_session() {
        let (data, affine) = fixture();
        let full = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let index = affinity_scape::ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let parts = Session::from_parts(&data, &affine, index, data.labels().to_vec()).unwrap();
        for q in [
            "MET correlation > 0.7",
            "MER covariance BETWEEN -0.5 AND 0.5",
            "MEC mean OF STK0, STK1",
        ] {
            assert_eq!(full.execute(q).unwrap(), parts.execute(q).unwrap(), "{q}");
        }
        // Auto-generated labels when none are supplied.
        let index = affinity_scape::ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        let anon = Session::from_parts(&data, &affine, index, Vec::new()).unwrap();
        assert!(anon.execute("MEC mean OF S0").is_ok());
        let index = affinity_scape::ScapeIndex::build(&data, &affine, &Measure::ALL).unwrap();
        assert!(Session::from_parts(&data, &affine, index, vec!["x".into()]).is_err());
    }

    #[test]
    fn sharded_backend_matches_global() {
        let (data, affine) = fixture();
        let global = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let model =
            affinity_shard::ShardedModel::build(&data, &SymexParams::default(), 3, &Measure::ALL)
                .unwrap();
        let sharded = Session::from_sharded(&model, data.labels().to_vec()).unwrap();
        for q in [
            "MET correlation > 0.7",
            "MET median > 100",
            "MER covariance BETWEEN -0.5 AND 0.5",
            "MEC mean OF STK0, STK1",
            "MEC correlation OF STK0 STK1 STK2",
        ] {
            assert_eq!(
                global.execute(q).unwrap(),
                sharded.execute(q).unwrap(),
                "{q}"
            );
        }
        let plan = sharded
            .execute("EXPLAIN MET correlation > 0.9")
            .unwrap()
            .to_string();
        assert!(plan.contains("3 shards"), "{plan}");
        let plan = sharded
            .execute("EXPLAIN MEC mean OF STK0")
            .unwrap()
            .to_string();
        assert!(plan.contains("owning shard"), "{plan}");
        // Label validation mirrors the other constructors.
        assert!(Session::from_sharded(&model, vec!["x".into()]).is_err());
        let anon = Session::from_sharded(&model, Vec::new()).unwrap();
        assert!(anon.execute("MEC mean OF S0").is_ok());
    }

    #[test]
    fn mec_pairwise_rejects_repeated_series() {
        let (data, affine) = fixture();
        let global = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let model =
            affinity_shard::ShardedModel::build(&data, &SymexParams::default(), 3, &Measure::ALL)
                .unwrap();
        let sharded = Session::from_sharded(&model, data.labels().to_vec()).unwrap();
        // Scalar path, and a request large enough for the batched path.
        let batched = format!(
            "MEC dot OF {}, 0",
            (0..data.series_count())
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        for s in [&global, &sharded] {
            for q in [
                "MEC correlation OF 1, 1",
                "MEC covariance OF STK0 STK2 STK0",
            ] {
                let e = s.execute(q).unwrap_err();
                assert_eq!(e.wire_code(), "INTERNAL", "{q}");
                assert!(e.to_string().contains("distinct series"), "{q}: {e}");
            }
            assert!(s.execute(&batched).is_err());
        }
    }

    #[test]
    fn display_renders_output() {
        let (data, affine) = fixture();
        let s = Session::new(&data, &affine, &Measure::ALL).unwrap();
        let text = s.execute("MET correlation > 0.99").unwrap().to_string();
        assert!(text.contains("pairs"));
        let text = s.execute("MEC mean OF STK0").unwrap().to_string();
        assert!(text.contains("STK0"));
        let text = s
            .execute("MEC covariance OF STK0 STK1")
            .unwrap()
            .to_string();
        assert!(text.contains('\t'));
        let text = s.execute("MET mean > -1e18").unwrap().to_string();
        assert!(text.contains("series"));
    }
}
