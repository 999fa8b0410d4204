//! Query sessions: the local models statements run on — one global
//! engine + index, or a sharded model — behind the one planner in
//! [`crate::plan`].

use crate::cancel::CancelToken;
use crate::parser::{parse, ParseError, Statement};
use crate::plan::{self, cancel_error, QueryModel};
use affinity_core::measures::{LocationMeasure, Measure, PairwiseMeasure};
use affinity_core::mec::MecEngine;
use affinity_core::symex::AffineSet;
use affinity_data::{DataMatrix, SequencePair, SeriesId, SeriesSource};
use affinity_linalg::Matrix;
use affinity_scape::{Filter, ScapeError, ScapeIndex};
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
/// A session answers from one of two models: a **global** model (one
/// MEC engine + one SCAPE index) or a borrowed **sharded** model
/// ([`Session::from_sharded`]), whose cross-shard merge layer returns
/// answers bit-identical to the global model's.
pub struct Session<'a> {
    labels: Vec<String>,
    model: Local<'a>,
}

/// The local model a session answers from. An enum rather than a boxed
/// `dyn QueryModel`: a trait object's drop is assumed to touch its
/// borrow, so callers could no longer move the affine set a session
/// borrows once the session's last use has passed.
enum Local<'a> {
    Global(Global<'a>),
    /// Borrowed, so one resident model can serve many sessions.
    Sharded(&'a ShardedModel),
}

/// The monolithic model: one engine, one index.
struct Global<'a> {
    engine: MecEngine<'a>,
    /// Boxed to keep `Local` near the size of its slimmest variant.
    index: Box<ScapeIndex>,
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
    /// [`SeriesSource::prefetch`], so a `CachedStore` serves each cold
    /// miss together with the announced columns after it in one region
    /// read; the session built is bit-for-bit the same either way.
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
            model: Local::Global(Global {
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
            }),
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
            model: Local::Sharded(model),
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
            model: Local::Global(Global {
                engine: MecEngine::new(&model.data, &model.affine),
                index: Box::new(model.index.clone()),
            }),
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
            model: Local::Global(Global {
                engine: MecEngine::new(data, affine),
                index: Box::new(index),
            }),
        })
    }

    /// Parse and execute one statement.
    ///
    /// # Errors
    /// See [`QlError`].
    pub fn execute(&self, query: &str) -> Result<QueryOutput, QlError> {
        self.execute_with(query, &CancelToken::new())
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
        match &self.model {
            Local::Global(model) => plan::run(model, &self.labels, statement, token),
            Local::Sharded(model) => plan::run(model, &self.labels, statement, token),
        }
    }
}

/// Map an index error, routing [`ScapeError::Cancelled`] to the token's
/// cause and everything else to [`QlError::Engine`].
fn scape_error(e: ScapeError, token: &CancelToken) -> QlError {
    match e {
        ScapeError::Cancelled => cancel_error(token),
        other => QlError::Engine(other.to_string()),
    }
}

fn engine_error(e: impl fmt::Display) -> QlError {
    QlError::Engine(e.to_string())
}

/// Fallback plan over a local model: filter `W_A` values over all pairs
/// of `n` series, polling the token once per anchor row. A pair whose
/// value errors is dropped rather than panicking mid-query.
fn scan_pairs(
    n: usize,
    value: impl Fn(SequencePair) -> Option<f64>,
    filter: Filter,
    token: &CancelToken,
) -> Result<Vec<SequencePair>, QlError> {
    let mut out = Vec::new();
    for u in 0..n {
        if token.should_stop() {
            return Err(cancel_error(token));
        }
        for v in u + 1..n {
            let p = SequencePair::new(u, v);
            if value(p).is_some_and(|x| filter.keep(x)) {
                out.push(p);
            }
        }
    }
    Ok(out)
}

/// Fallback plan over a local model: filter `W_A` values over all
/// series.
fn scan_series(
    n: usize,
    value: impl Fn(SeriesId) -> Option<f64>,
    filter: Filter,
    token: &CancelToken,
) -> Result<Vec<SeriesId>, QlError> {
    if token.should_stop() {
        return Err(cancel_error(token));
    }
    Ok((0..n)
        .filter(|&v| value(v).is_some_and(|x| filter.keep(x)))
        .collect())
}

impl QueryModel for Global<'_> {
    type Error = QlError;

    fn indexed(&self, measure: Measure) -> bool {
        self.index.supports(measure)
    }

    fn shards(&self) -> Option<usize> {
        None
    }

    fn location(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
    ) -> Result<Vec<Option<f64>>, QlError> {
        let values = self.engine.location(measure, ids).map_err(engine_error)?;
        Ok(values.into_iter().map(Some).collect())
    }

    fn pairwise(&self, measure: PairwiseMeasure, ids: &[SeriesId]) -> Result<Matrix, QlError> {
        self.engine.pairwise(measure, ids).map_err(engine_error)
    }

    fn search_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, QlError> {
        self.index
            .search_pairs(measure, filter, &|| token.should_stop())
            .map_err(|e| scape_error(e, token))
    }

    fn search_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SeriesId>, QlError> {
        self.index
            .search_series(measure, filter)
            .map_err(|e| scape_error(e, token))
    }

    fn scan_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, QlError> {
        let n = self.engine.affine().series_count();
        scan_pairs(
            n,
            |p| self.engine.pair_value(measure, p).ok(),
            filter,
            token,
        )
    }

    fn scan_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SeriesId>, QlError> {
        let n = self.engine.affine().series_count();
        scan_series(
            n,
            |v| self.engine.location_value(measure, v).ok(),
            filter,
            token,
        )
    }
}

/// The sharded model: the merge layer's answers are bit-identical to
/// the global model's, so the same plan runs on both.
impl QueryModel for &ShardedModel {
    type Error = QlError;

    fn indexed(&self, measure: Measure) -> bool {
        self.supports(measure)
    }

    fn shards(&self) -> Option<usize> {
        Some(self.plan().shards())
    }

    fn location(
        &self,
        measure: LocationMeasure,
        ids: &[SeriesId],
    ) -> Result<Vec<Option<f64>>, QlError> {
        let values = ShardedModel::location(self, measure, ids).map_err(engine_error)?;
        Ok(values.into_iter().map(Some).collect())
    }

    fn pairwise(&self, measure: PairwiseMeasure, ids: &[SeriesId]) -> Result<Matrix, QlError> {
        ShardedModel::pairwise(self, measure, ids).map_err(engine_error)
    }

    fn search_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, QlError> {
        ShardedModel::search_pairs(self, measure, filter, &|| token.should_stop())
            .map_err(|e| scape_error(e, token))
    }

    fn search_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SeriesId>, QlError> {
        ShardedModel::search_series(self, measure, filter).map_err(|e| scape_error(e, token))
    }

    fn scan_pairs(
        &self,
        measure: PairwiseMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SequencePair>, QlError> {
        let n = self.series_count();
        scan_pairs(n, |p| self.pair_value(measure, p).ok(), filter, token)
    }

    fn scan_series(
        &self,
        measure: LocationMeasure,
        filter: Filter,
        token: &CancelToken,
    ) -> Result<Vec<SeriesId>, QlError> {
        let n = self.series_count();
        scan_series(n, |v| self.location_value(measure, v).ok(), filter, token)
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
