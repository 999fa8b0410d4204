//! The adapter to the system under test. This is the **only** file of the
//! benchmark that names workspace types or functions, so a refactor of
//! the crates breaks this file and nothing else in the harness.
//!
//! Everything the harness sees is a plain value (strings, numbers, byte
//! counts) or an opaque handle defined here. Spans are opened around the
//! calls into each layer's public functions; with the recorder disabled
//! they cost nothing, so traced and untraced runs execute one script.

use crate::trace::Tracer;
use affinity_coord::proto::{decode_request, decode_response, encode_request, encode_response};
use affinity_coord::{
    answer, BreakerPolicy, CoordServer, CoordStats, Coordinator, InProcBackend, RemoteShard,
    RetryPolicy, ShardBackend, ShardRequest,
};
use affinity_core::afclst::afclst;
use affinity_core::measures::{self, LocationMeasure, Measure, PairwiseMeasure};
use affinity_core::mec::MecEngine;
use affinity_core::symex::{pivot_pseudo_inverse, AffineSet, Symex, SymexParams};
use affinity_data::generator::{sensor_dataset, stock_dataset, SensorConfig, StockConfig};
use affinity_data::DataMatrix;
use affinity_index::BPlusTree;
use affinity_par::ThreadPool;
use affinity_ql::{parse, Session};
use affinity_scape::{ScapeIndex, ThresholdOp};
use affinity_serve::{ServeConfig, Server, ShardServing};
use affinity_shard::{ShardPlan, ShardedModel};
use affinity_storage::JournalWriter;
use affinity_stream::{
    open_model, RefreshKind, StreamingConfig, StreamingEngine, JOURNAL_FILE, SNAPSHOT_FILE,
};
use std::hint::black_box;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Which seeded generator makes the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    Sensor,
    Stock,
}

/// Pairwise measures statements may name (the parser's spelling).
pub const PAIRWISE: [&str; 5] = ["covariance", "dot", "correlation", "cosine", "dice"];
/// Location measures statements may name. `mode` is indexed by the model
/// but left out of statements: its exact reference is O(m²) per series.
pub const LOCATION: [&str; 2] = ["mean", "median"];

fn pairwise_measure(name: &str) -> PairwiseMeasure {
    match name {
        "covariance" => PairwiseMeasure::Covariance,
        "dot" => PairwiseMeasure::DotProduct,
        "correlation" => PairwiseMeasure::Correlation,
        "cosine" => PairwiseMeasure::Cosine,
        "dice" => PairwiseMeasure::Dice,
        other => panic!("not a pairwise measure: {other}"),
    }
}

fn location_measure(name: &str) -> LocationMeasure {
    match name {
        "mean" => LocationMeasure::Mean,
        "median" => LocationMeasure::Median,
        other => panic!("not a location measure: {other}"),
    }
}

/// A resident data matrix, series labelled `S<id>` as served models
/// label them, so one statement text works on every path.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix(DataMatrix);

impl Matrix {
    pub fn from_columns(columns: Vec<Vec<f64>>) -> Matrix {
        let n = columns.len();
        let mut dm = DataMatrix::from_series(columns);
        dm.set_labels((0..n).map(|v| format!("S{v}")).collect());
        Matrix(dm)
    }

    pub fn n(&self) -> usize {
        self.0.series_count()
    }

    pub fn m(&self) -> usize {
        self.0.samples()
    }

    pub fn series(&self, v: usize) -> &[f64] {
        self.0.series(v)
    }

    pub fn pairs(&self) -> usize {
        self.0.pair_count()
    }

    /// The first `m` samples of every series (the model's window; the
    /// rest of a generated matrix is the tick stream).
    pub fn head(&self, m: usize) -> Matrix {
        Matrix::from_columns(
            (0..self.n())
                .map(|v| self.series(v)[..m].to_vec())
                .collect(),
        )
    }

    pub fn digest(&self) -> u64 {
        self.0
            .as_slice()
            .iter()
            .fold(crate::stats::FNV_OFFSET, |h, x| {
                crate::stats::fnv1a_from(h, &x.to_bits().to_le_bytes())
            })
    }
}

/// Seeded dataset: the same `(kind, n, samples, seed)` gives the same
/// bits.
pub fn generate(kind: Dataset, n: usize, samples: usize, seed: u64) -> Vec<Vec<f64>> {
    let dm = match kind {
        Dataset::Sensor => sensor_dataset(&SensorConfig {
            series: n,
            samples,
            seed,
            ..SensorConfig::default()
        }),
        Dataset::Stock => stock_dataset(&StockConfig {
            series: n,
            samples,
            seed,
            ..StockConfig::default()
        }),
    };
    (0..n).map(|v| dm.series(v).to_vec()).collect()
}

// --- exact references (`core::measures` kernels only) ----------------

/// Exact value of `measure` for every pair `u < v`, lexicographic.
pub fn exact_pairwise_all(measure: &str, data: &Matrix) -> Vec<f64> {
    measures::pairwise_all(pairwise_measure(measure), &data.0)
}

/// Exact value of `measure` of a series with itself (matrix diagonal).
pub fn exact_pairwise_self(measure: &str, x: &[f64]) -> f64 {
    measures::pairwise_self(pairwise_measure(measure), x)
}

pub fn exact_location_all(measure: &str, data: &Matrix) -> Vec<f64> {
    measures::location_all(location_measure(measure), &data.0)
}

// --- build: what `affinity query` does -------------------------------

/// Counts of one build; every field repeats exactly for a given input.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildCounts {
    pub afclst_iters: usize,
    pub symex_pairs: usize,
    pub pinv_computed: usize,
    pub pinv_cache_hits: usize,
    pub sequence_nodes: usize,
    pub pivot_nodes: usize,
}

fn symex_params(threads: usize) -> SymexParams {
    SymexParams {
        threads,
        ..SymexParams::default()
    }
}

/// Resident matrix → first statement answered: AFCLST, SYMEX, the SCAPE
/// index, the session (whose construction is the MEC pre-processing) and
/// one statement. The calls are the ones `Symex::run` + `Session::new`
/// make, issued separately so each gets its span. `threads == 0` means
/// all hardware threads.
pub fn build_and_answer(
    data: &Matrix,
    threads: usize,
    first: &str,
    tr: &mut Tracer,
) -> Res<(BuildCounts, String)> {
    let params = symex_params(threads);
    let clusters = tr
        .span("core.afclst", || afclst(&data.0, &params.afclst))
        .map_err(err("afclst"))?;
    let afclst_iters = clusters.iterations();
    let symex = Symex::new(params);
    let (affine, stats) = tr
        .span("core.symex_explore", || symex.explore(&data.0, clusters))
        .map_err(err("symex"))?;
    let index = tr
        .span("scape.build", || {
            ScapeIndex::build_from_source(&data.0, &affine, &Measure::EXTENDED, &ThreadPool::new(1))
        })
        .map_err(err("scape build"))?;
    let istats = index.stats();
    let session = tr
        .span("ql.session_open", || {
            Session::from_parts(&data.0, &affine, index, data.0.labels().to_vec())
        })
        .map_err(err("session"))?;
    let body = tr
        .span("ql.first_answer", || session.execute(first))
        .map_err(err("first statement"))?
        .to_string();
    Ok((
        BuildCounts {
            afclst_iters,
            symex_pairs: stats.assigned_in_march + stats.assigned_in_sweep,
            pinv_computed: stats.pinv_computed,
            pinv_cache_hits: stats.pinv_cache_hits,
            sequence_nodes: istats.pair_sequence_nodes,
            pivot_nodes: istats.pair_pivot_nodes,
        },
        body,
    ))
}

/// The monolithic session's answer bodies for `texts`, in order — what
/// every fleet answer must equal byte for byte.
pub fn answers(data: &Matrix, texts: &[String]) -> Res<Vec<String>> {
    let affine = Symex::new(symex_params(0))
        .run(&data.0)
        .map_err(err("symex"))?;
    let session = Session::new(&data.0, &affine, &Measure::EXTENDED).map_err(err("session"))?;
    texts
        .iter()
        .map(|t| {
            session
                .execute(t)
                .map(|o| o.to_string())
                .map_err(err("monolithic answer"))
        })
        .collect()
}

/// Seconds SYMEX spends outside its fits at this series count. The
/// pair→pivot assignment shares one public call with the fit phase and
/// touches no data, so its cost is taken from the same call over an
/// 8-sample head of the matrix, where every fit is a few dozen flops.
/// An upper estimate: the per-series fits and the (tiny) pair fits are
/// still inside.
pub fn symex_assign_seconds(data: &Matrix, threads: usize) -> Res<f64> {
    let head = data.head(8.min(data.m()));
    let params = symex_params(threads);
    let clusters = afclst(&head.0, &params.afclst).map_err(err("afclst (head)"))?;
    let symex = Symex::new(params);
    let t = Instant::now();
    black_box(
        symex
            .explore(&head.0, clusters)
            .map_err(err("symex (head)"))?,
    );
    Ok(t.elapsed().as_secs_f64())
}

/// Seconds to bulk-load `trees` B+ trees holding `entries` sorted keys
/// in all — the index layer's share of a SCAPE build of that size.
pub fn index_bulk_build_seconds(entries: usize, trees: usize) -> f64 {
    let trees = trees.max(1);
    let per = entries / trees;
    let batches: Vec<Vec<(f64, u32)>> = (0..trees)
        .map(|t| {
            (0..per)
                .map(|i| ((t * per + i) as f64 * 0.5, i as u32))
                .collect()
        })
        .collect();
    let t = Instant::now();
    for batch in batches {
        black_box(BPlusTree::bulk_build(batch));
    }
    t.elapsed().as_secs_f64()
}

// --- the built model, opened up for per-layer measurements -----------

/// A statement in the harness's own terms; `sut` maps it onto direct
/// layer calls. Series are ids.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Met {
        measure: &'static str,
        greater: bool,
        tau: f64,
    },
    Mer {
        measure: &'static str,
        lo: f64,
        hi: f64,
    },
    Mec {
        measure: &'static str,
        ids: Vec<usize>,
    },
}

impl Stmt {
    pub fn is_pairwise(&self) -> bool {
        let m = match self {
            Stmt::Met { measure, .. } | Stmt::Mer { measure, .. } | Stmt::Mec { measure, .. } => {
                measure
            }
        };
        PAIRWISE.contains(m)
    }

    /// The statement as `affinity-ql` text.
    pub fn text(&self) -> String {
        match self {
            Stmt::Met {
                measure,
                greater,
                tau,
            } => {
                format!("MET {measure} {} {tau}", if *greater { '>' } else { '<' })
            }
            Stmt::Mer { measure, lo, hi } => format!("MER {measure} BETWEEN {lo} AND {hi}"),
            Stmt::Mec { measure, ids } => {
                let list: Vec<String> = ids.iter().map(|v| format!("S{v}")).collect();
                format!("MEC {measure} OF {}", list.join(", "))
            }
        }
    }
}

/// One global model plus its K=1 and K=2 shardings, borrowed for the
/// duration of [`with_layers`].
pub struct Layers<'a> {
    data: &'a Matrix,
    affine: &'a AffineSet,
    session: Session<'a>,
    engine: MecEngine<'a>,
    index: ScapeIndex,
    k1: Session<'a>,
    k2: Session<'a>,
    k2_model: &'a ShardedModel,
    coord: Coordinator,
    coord_stats: Arc<CoordStats>,
}

/// Build the model once more (untimed) and lend its layers to `f`.
pub fn with_layers<R>(data: &Matrix, f: impl FnOnce(&Layers<'_>) -> R) -> Res<R> {
    let affine = Symex::new(symex_params(0))
        .run(&data.0)
        .map_err(err("symex"))?;
    let labels = data.0.labels().to_vec();
    let session = Session::new(&data.0, &affine, &Measure::EXTENDED).map_err(err("session"))?;
    let engine = MecEngine::new(&data.0, &affine);
    let index = ScapeIndex::build(&data.0, &affine, &Measure::EXTENDED).map_err(err("scape"))?;
    let pool = Arc::new(ThreadPool::new(0));
    let shard = |k: usize| {
        ShardedModel::from_global(
            &data.0,
            &affine,
            ShardPlan::blocked(data.n(), k),
            &Measure::EXTENDED,
            Arc::clone(&pool),
        )
        .map_err(err("sharded build"))
    };
    let (k1_model, k2_model) = (shard(1)?, shard(2)?);
    let k1 = Session::from_sharded(&k1_model, labels.clone()).map_err(err("K=1 session"))?;
    let k2 = Session::from_sharded(&k2_model, labels.clone()).map_err(err("K=2 session"))?;
    let coord_stats = Arc::new(CoordStats::new());
    let backends = (0..2)
        .map(|i| {
            Arc::new(InProcBackend::new(&k2_model, i, Arc::clone(&coord_stats)))
                as Arc<dyn ShardBackend>
        })
        .collect();
    let coord = Coordinator::new(backends, labels, false, Arc::clone(&coord_stats))
        .map_err(err("in-process coordinator"))?;
    Ok(f(&Layers {
        data,
        affine: &affine,
        session,
        engine,
        index,
        k1,
        k2,
        k2_model: &k2_model,
        coord,
        coord_stats,
    }))
}

/// Which executor answers a statement text in-process.
#[derive(Debug, Clone, Copy)]
pub enum Executor {
    Global,
    ShardedK1,
    ShardedK2,
    CoordInProc,
}

impl Layers<'_> {
    /// `ql::parse` alone.
    pub fn parse(&self, text: &str) -> Res<()> {
        black_box(parse(text).map_err(err("parse"))?);
        Ok(())
    }

    /// Parse + plan + execute + render, in-process; the body the wire
    /// would carry.
    pub fn execute(&self, via: Executor, text: &str) -> Res<String> {
        let out = match via {
            Executor::Global => self.session.execute(text),
            Executor::ShardedK1 => self.k1.execute(text),
            Executor::ShardedK2 => self.k2.execute(text),
            Executor::CoordInProc => {
                return self
                    .coord
                    .execute(text)
                    .map(|a| a.output.to_string())
                    .map_err(err("coordinator"));
            }
        };
        out.map(|o| o.to_string()).map_err(err("execute"))
    }

    /// The SCAPE call behind a pairwise MET/MER; rows returned.
    pub fn scape_rows(&self, stmt: &Stmt) -> Res<usize> {
        match stmt {
            Stmt::Met {
                measure,
                greater,
                tau,
            } => self
                .index
                .threshold_pairs(pairwise_measure(measure), op(*greater), *tau)
                .map(|p| p.len()),
            Stmt::Mer { measure, lo, hi } => self
                .index
                .range_pairs(pairwise_measure(measure), *lo, *hi)
                .map(|p| p.len()),
            Stmt::Mec { .. } => return Err("scape_rows on a MEC statement".into()),
        }
        .map_err(err("scape query"))
    }

    /// The SCAPE count (subtree counts, no materialisation) for the same.
    pub fn scape_count(&self, stmt: &Stmt) -> Res<usize> {
        match stmt {
            Stmt::Met {
                measure,
                greater,
                tau,
            } => self
                .index
                .count_threshold_pairs(pairwise_measure(measure), op(*greater), *tau),
            Stmt::Mer { measure, lo, hi } => {
                self.index
                    .count_range_pairs(pairwise_measure(measure), *lo, *hi)
            }
            Stmt::Mec { .. } => return Err("scape_count on a MEC statement".into()),
        }
        .map_err(err("scape count"))
    }

    /// The MEC engine call behind a MEC statement.
    pub fn mec(&self, stmt: &Stmt) -> Res<()> {
        let Stmt::Mec { measure, ids } = stmt else {
            return Err("mec on a MET/MER statement".into());
        };
        if stmt.is_pairwise() {
            black_box(
                self.engine
                    .pairwise(pairwise_measure(measure), ids)
                    .map_err(err("mec pairwise"))?,
            );
        } else {
            black_box(
                self.engine
                    .location(location_measure(measure), ids)
                    .map_err(err("mec location"))?,
            );
        }
        Ok(())
    }

    /// Microseconds per `pivot_pseudo_inverse` over up to `limit` of the
    /// model's own pivots (its own common columns and centres).
    pub fn pinv_us_per_pivot(&self, limit: usize) -> f64 {
        let pivots = self.affine.pivots();
        let take = pivots.len().min(limit).max(1);
        let t = Instant::now();
        for p in pivots.iter().take(take) {
            black_box(pivot_pseudo_inverse(
                self.data.series(p.common),
                self.affine.clusters().center(p.cluster),
            ));
        }
        t.elapsed().as_secs_f64() * 1e6 / take as f64
    }

    /// Microseconds per frame for `proto` encode and decode, over the
    /// request/response frames the given pairwise MET/MER puts on the
    /// wire to shard 0 of the K=2 model.
    pub fn proto_us(&self, stmt: &Stmt, reps: usize) -> Res<(f64, f64)> {
        let req = match stmt {
            Stmt::Met {
                measure,
                greater,
                tau,
            } => ShardRequest::ThresholdPairs {
                measure: pairwise_measure(measure),
                op: op(*greater),
                tau: *tau,
            },
            Stmt::Mer { measure, lo, hi } => ShardRequest::RangePairs {
                measure: pairwise_measure(measure),
                lo: *lo,
                hi: *hi,
            },
            Stmt::Mec { .. } => return Err("proto_us wants a MET/MER".into()),
        };
        let resp = answer(self.k2_model, 0, 0, 0, &req).map_err(err("shard answer"))?;
        let line = encode_request(&req);
        let lines = encode_response(&resp);
        let t = Instant::now();
        for _ in 0..reps {
            black_box(encode_request(black_box(&req)));
            black_box(encode_response(black_box(&resp)));
        }
        let enc = t.elapsed().as_secs_f64() * 1e6 / (2 * reps) as f64;
        let t = Instant::now();
        for _ in 0..reps {
            black_box(decode_request(black_box(&line)).map_err(err("decode request"))?);
            black_box(decode_response(&req, black_box(&lines)).map_err(err("decode response"))?);
        }
        let dec = t.elapsed().as_secs_f64() * 1e6 / (2 * reps) as f64;
        Ok((enc, dec))
    }

    /// Shard calls routed by the in-process coordinator so far.
    pub fn coord_routed(&self) -> u64 {
        crate::stats::kv_u64(&self.coord_stats.render(), "routed")
    }
}

fn op(greater: bool) -> ThresholdOp {
    if greater {
        ThresholdOp::Greater
    } else {
        ThresholdOp::Less
    }
}

// --- streaming engine, persistence -----------------------------------

fn streaming_config(window: usize, refresh_every: u64) -> StreamingConfig {
    let mut cfg = StreamingConfig::new(window);
    cfg.indexed = Measure::EXTENDED.to_vec();
    cfg.refresh_every = refresh_every;
    cfg
}

/// What one engine refresh did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Refresh {
    pub full: bool,
    pub refit_pairs: usize,
    pub seconds: f64,
}

/// A warm streaming engine over the window `base`.
pub struct Engine {
    inner: StreamingEngine,
}

impl Engine {
    /// Boot from `base` (its samples are the window) and build the model.
    pub fn boot(base: &Matrix, refresh_every: u64) -> Res<Engine> {
        let inner =
            StreamingEngine::from_source(streaming_config(base.m(), refresh_every), &base.0)
                .map_err(err("engine boot"))?;
        Ok(Engine { inner })
    }

    /// Commit a snapshot of the model into `dir` and arm journaling.
    pub fn persist_to(&mut self, dir: &Path, tr: &mut Tracer) -> Res<()> {
        tr.span("storage.snapshot_commit", || self.inner.persist_to(dir))
            .map(|_| ())
            .map_err(err("snapshot commit"))
    }

    /// Push the next `count` ticks of `replay` (tick `t` is sample
    /// `t mod samples`, as the server replays them) without letting a
    /// refresh fall due; returns seconds spent.
    pub fn push_ticks(&mut self, replay: &Matrix, count: u64) -> Res<f64> {
        let n = replay.n();
        let mut row = vec![0.0; n];
        let t = Instant::now();
        for _ in 0..count {
            let at = (self.inner.window().ticks() % replay.m() as u64) as usize;
            for (v, slot) in row.iter_mut().enumerate() {
                *slot = replay.series(v)[at];
            }
            if self.inner.push(&row).map_err(err("push"))? {
                return Err("a refresh fell due inside push_ticks".into());
            }
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// The policy-driven refresh a due tick would trigger.
    pub fn refresh(&mut self, tr: &mut Tracer) -> Res<Refresh> {
        let t = Instant::now();
        let kind = tr
            .span("stream.refresh", || self.inner.refresh_auto())
            .map_err(err("refresh"))?;
        let seconds = t.elapsed().as_secs_f64();
        Ok(match kind {
            RefreshKind::Full => Refresh {
                full: true,
                refit_pairs: 0,
                seconds,
            },
            RefreshKind::Delta { refit_pairs, .. } => Refresh {
                full: false,
                refit_pairs,
                seconds,
            },
        })
    }
}

/// Bytes of the committed snapshot file in `dir`.
pub fn snapshot_bytes(dir: &Path) -> Res<u64> {
    std::fs::metadata(dir.join(SNAPSHOT_FILE))
        .map(|m| m.len())
        .map_err(err("snapshot size"))
}

/// Bytes of the delta journal in `dir` (0 when there is none).
pub fn journal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len())
}

/// Snapshot directory → first answer: open the persisted model, open a
/// session over it, run one statement.
pub fn open_and_answer(dir: &Path, first: &str, tr: &mut Tracer) -> Res<String> {
    let (model, _report) = tr
        .span("storage.snapshot_open", || open_model(dir))
        .map_err(err("snapshot open"))?;
    let session = tr
        .span("ql.snapshot_session", || {
            Session::open_snapshot(&model, Vec::new())
        })
        .map_err(err("snapshot session"))?;
    Ok(tr
        .span("ql.first_answer", || session.execute(first))
        .map_err(err("first statement after restart"))?
        .to_string())
}

/// Seconds for a warm engine restart (`StreamingEngine::resume`) from
/// `dir`.
pub fn resume_seconds(dir: &Path, window: usize, refresh_every: u64) -> Res<f64> {
    let t = Instant::now();
    black_box(
        StreamingEngine::resume(streaming_config(window, refresh_every), dir)
            .map_err(err("resume"))?,
    );
    Ok(t.elapsed().as_secs_f64())
}

/// Median milliseconds of one durable journal append of `payload` bytes
/// (the write-ahead step of a delta refresh), over `reps` appends.
pub fn journal_append_ms(dir: &Path, payload: usize, reps: usize) -> Res<f64> {
    std::fs::create_dir_all(dir).map_err(err("journal dir"))?;
    let mut journal =
        JournalWriter::create(dir.join("probe.journal"), 1).map_err(err("journal create"))?;
    let record = vec![0xA5u8; payload];
    let mut ms = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        journal.append(&record).map_err(err("journal append"))?;
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(crate::stats::median(&ms))
}

// --- serving topologies ----------------------------------------------

fn listen() -> Res<(TcpListener, String)> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err("bind"))?;
    let addr = listener
        .local_addr()
        .map_err(err("local addr"))?
        .to_string();
    Ok((listener, addr))
}

/// Wake an accept loop so it notices its shutdown flag.
fn nudge(addr: &str) {
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.write_all(b".ping\n");
    }
}

/// One in-process `Server` behind real loopback TCP.
pub struct Mono {
    server: Arc<Server>,
    pub addr: String,
    accept: JoinHandle<Result<String, String>>,
}

fn start_server(engine: Engine, replay: &Matrix, cfg: ServeConfig) -> Res<Mono> {
    let server = Server::new(engine.inner, replay.0.clone(), cfg).map_err(err("server"))?;
    let (listener, addr) = listen()?;
    let accept = {
        let srv = Arc::clone(&server);
        std::thread::spawn(move || srv.serve(listener).map_err(|e| e.to_string()))
    };
    Ok(Mono {
        server,
        addr,
        accept,
    })
}

impl Mono {
    /// Serve the whole model; `replay` is the tick stream `.tick` reads.
    pub fn start(engine: Engine, replay: &Matrix, workers: usize) -> Res<Mono> {
        start_server(
            engine,
            replay,
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
    }

    /// Drain, stop and join the server; its final ledger line.
    pub fn stop(self) -> Res<String> {
        self.server.request_shutdown();
        nudge(&self.addr);
        self.accept
            .join()
            .map_err(|_| "server accept loop panicked".to_string())?
    }
}

/// `CoordServer` → `Coordinator` → K `RemoteShard`s → K shard `Server`s,
/// all in this process over loopback TCP.
pub struct Fleet {
    shards: Vec<Mono>,
    coord: Arc<CoordServer>,
    pub addr: String,
    accept: JoinHandle<std::io::Result<String>>,
}

fn retry_policy() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        timeout: Duration::from_secs(10),
        ..RetryPolicy::default()
    }
}

fn remote_coordinator(
    addrs: &[String],
    stats: &Arc<CoordStats>,
) -> Res<(Coordinator, Vec<Arc<RemoteShard>>)> {
    let remotes: Vec<Arc<RemoteShard>> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            Arc::new(RemoteShard::new(
                i,
                addr.clone(),
                retry_policy(),
                BreakerPolicy::default(),
                Arc::clone(stats),
            ))
        })
        .collect();
    let backends = remotes
        .iter()
        .map(|r| Arc::clone(r) as Arc<dyn ShardBackend>)
        .collect();
    let coordinator = Coordinator::new(backends, Vec::new(), false, Arc::clone(stats))
        .map_err(err("coordinator"))?;
    Ok((coordinator, remotes))
}

impl Fleet {
    /// Boot `k` shard servers (each warms its own engine over `base`,
    /// as `affinity serve --shard i --shards k` does) and a coordinator
    /// in front of them.
    pub fn start(
        base: &Matrix,
        replay: &Matrix,
        refresh_every: u64,
        k: usize,
        workers: usize,
    ) -> Res<Fleet> {
        let shards = (0..k)
            .map(|i| {
                start_server(
                    Engine::boot(base, refresh_every)?,
                    replay,
                    ServeConfig {
                        workers,
                        shard: Some(ShardServing::new(i, k)),
                        ..ServeConfig::default()
                    },
                )
            })
            .collect::<Res<Vec<Mono>>>()?;
        let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
        let (coordinator, remotes) = remote_coordinator(&addrs, &Arc::new(CoordStats::new()))?;
        let coord = CoordServer::new(coordinator, remotes);
        let (listener, addr) = listen()?;
        let accept = {
            let srv = Arc::clone(&coord);
            std::thread::spawn(move || srv.serve(listener))
        };
        Ok(Fleet {
            shards,
            coord,
            addr,
            accept,
        })
    }

    pub fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.addr.clone()).collect()
    }

    /// A second coordinator over the same shard servers, driven
    /// in-process: `Coordinator::execute` with the shard hop but without
    /// the client-facing `CoordServer` hop.
    pub fn direct_coordinator(&self) -> Res<DirectCoord> {
        let stats = Arc::new(CoordStats::new());
        let (coordinator, _remotes) = remote_coordinator(&self.shard_addrs(), &stats)?;
        Ok(DirectCoord { coordinator, stats })
    }

    /// Stop the coordinator and every shard server; the coordinator's
    /// and the shards' final ledger lines.
    pub fn stop(self) -> Res<(String, Vec<String>)> {
        self.coord.request_shutdown();
        nudge(&self.addr);
        let coord_ledger = self
            .accept
            .join()
            .map_err(|_| "coordinator accept loop panicked".to_string())?
            .map_err(err("coordinator serve"))?;
        let shard_ledgers = self
            .shards
            .into_iter()
            .map(Mono::stop)
            .collect::<Res<Vec<_>>>()?;
        Ok((coord_ledger, shard_ledgers))
    }
}

/// See [`Fleet::direct_coordinator`].
pub struct DirectCoord {
    coordinator: Coordinator,
    stats: Arc<CoordStats>,
}

impl DirectCoord {
    pub fn execute(&self, text: &str) -> Res<String> {
        self.coordinator
            .execute(text)
            .map(|a| a.output.to_string())
            .map_err(err("remote coordinator"))
    }

    pub fn ledger(&self) -> String {
        self.stats.render()
    }
}
