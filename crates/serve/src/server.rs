//! The line-protocol TCP server: admission, worker lanes, epoch
//! publication, graceful shutdown.
//!
//! ## Wire protocol
//!
//! One request per line. A line starting with `.` is a control command
//! answered inline on the connection thread; anything else is
//! `<id> <statement>` — a client-chosen response tag followed by an
//! `affinity-ql` statement — admitted through the bounded queue and
//! executed on a worker lane against the epoch current at pickup time.
//! Responses are tagged, so they may interleave out of order:
//!
//! ```text
//! OK <id> <n>        then n payload lines (the statement's output)
//! ERR <id> <CODE> <message>
//! ```
//!
//! Error codes: `PARSE`, `UNKNOWN`, `RANGE`, `CANCELLED`, `DEADLINE`,
//! `OVERLOADED`, `INTERNAL`, `PROTO`. Control commands answer a single
//! `+...` line on success or `-err <message>`:
//!
//! ```text
//! .ping                 liveness probe
//! .epoch                current epoch id / model age / tick count
//! .stats                the conservation ledger (key=value pairs)
//! .tick <k>             ingest k deterministic replay ticks
//! .refresh              force a model refresh + epoch publication
//! .fault <name> [ms]    arm a fault (servers started with chaos only)
//! .shutdown             graceful shutdown: drain, persist, exit
//! ```

use crate::epoch::{EpochCell, ModelEpoch};
use crate::fault::{FaultPlan, ServeFault};
use crate::queue::{Admission, AdmissionQueue, QueuePolicy, ServeStats};
use affinity_coord::lines::{accept_loop, bounded, one_line, Conn, LineHandler, POLL};
use affinity_coord::proto::{decode_request, encode_response, ShardRequest};
use affinity_core::measures::Measure;
use affinity_data::DataMatrix;
use affinity_par::ThreadPool;
use affinity_ql::{CancelToken, QlError};
use affinity_shard::{ShardError, ShardPlan, ShardedModel};
use affinity_stream::{Model, RefreshKind, StreamError, StreamingEngine};
use parking_lot::Mutex;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard-server mode: this process serves one shard of a `K`-shard
/// fleet. Epochs are published as [`ShardedModel`]s (cut with
/// [`ShardPlan::blocked`], so every fleet member derives the identical
/// plan from `(series, shards)` alone), and `!`-prefixed statement
/// lines are answered through [`affinity_coord::answer`] — the same
/// function the coordinator's in-process backend runs, which is what
/// makes the distributed oracle hold.
#[derive(Debug, Clone)]
pub struct ShardServing {
    /// This server's shard index (`< shards`).
    pub shard: usize,
    /// Fleet size.
    pub shards: usize,
    /// Measures the shard indexes (normally `Measure::EXTENDED`; every
    /// fleet member must agree or the coordinator refuses the fleet).
    pub indexed: Vec<Measure>,
}

impl ShardServing {
    /// Shard `shard` of `shards`, indexing the extended measure set.
    pub fn new(shard: usize, shards: usize) -> ShardServing {
        ShardServing {
            shard,
            shards,
            indexed: Measure::EXTENDED.to_vec(),
        }
    }
}

/// Server configuration (the CLI flags, structured).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker lanes executing queries (≥ 1).
    pub workers: usize,
    /// Admission-control policy.
    pub queue: QueuePolicy,
    /// Accept `.fault` commands (chaos testing only).
    pub chaos: bool,
    /// Self-driven refresh churn: ingest one replay tick this often.
    pub churn_every: Option<Duration>,
    /// Serve one shard of a fleet instead of the whole model.
    pub shard: Option<ShardServing>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue: QueuePolicy::default(),
            chaos: false,
            churn_every: None,
            shard: None,
        }
    }
}

/// Errors raised starting or running a server.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// Streaming-engine failure (refresh or persistence).
    Stream(StreamError),
    /// Epoch construction failure.
    Ql(QlError),
    /// Sharded-epoch construction failure (shard-server mode).
    Shard(ShardError),
    /// The engine handed to [`Server::new`] has no model yet.
    NoModel,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "io: {e}"),
            ServeError::Stream(e) => write!(f, "stream: {e}"),
            ServeError::Ql(e) => write!(f, "ql: {e}"),
            ServeError::Shard(e) => write!(f, "shard: {e}"),
            ServeError::NoModel => write!(f, "engine has no model (window not warm?)"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<StreamError> for ServeError {
    fn from(e: StreamError) -> Self {
        ServeError::Stream(e)
    }
}

impl From<QlError> for ServeError {
    fn from(e: QlError) -> Self {
        ServeError::Ql(e)
    }
}

impl From<ShardError> for ServeError {
    fn from(e: ShardError) -> Self {
        ServeError::Shard(e)
    }
}

/// One admitted query request.
struct Request {
    id: String,
    statement: String,
    deadline: Option<Instant>,
    conn: Arc<Conn>,
}

/// The serving instance. Shared across the accept loop, connection
/// readers, worker lanes, and the churn thread via `Arc`.
pub struct Server {
    engine: Mutex<StreamingEngine>,
    /// Deterministic tick source: tick `t` replays column `t mod
    /// samples` of this matrix, so any two runs that reach the same
    /// tick count hold identical windows — the property the
    /// kill-9/restart bit-identity check rests on.
    replay: DataMatrix,
    cell: EpochCell,
    queue: AdmissionQueue<Request>,
    stats: ServeStats,
    faults: FaultPlan,
    cfg: ServeConfig,
    /// Build pool for sharded epochs (shard-server mode only).
    shard_pool: Option<Arc<ThreadPool>>,
    epoch_seq: AtomicU64,
    shutdown: AtomicBool,
}

impl Server {
    /// Wrap a built streaming engine (its current model becomes epoch
    /// 1). `replay` is the deterministic tick source for `.tick` and
    /// churn — pass the dataset the engine was warmed from.
    ///
    /// Series are addressed as `S<id>` (or bare numeric id) regardless
    /// of origin, matching snapshot-resumed sessions.
    ///
    /// # Errors
    /// [`ServeError::NoModel`] if the engine has not built a model yet.
    pub fn new(
        engine: StreamingEngine,
        replay: DataMatrix,
        cfg: ServeConfig,
    ) -> Result<Arc<Self>, ServeError> {
        let model = engine.model().ok_or(ServeError::NoModel)?;
        let shard_pool = match &cfg.shard {
            Some(sh) => {
                if sh.shard >= sh.shards {
                    return Err(ServeError::Shard(ShardError::Plan(format!(
                        "shard {} of a {}-shard fleet",
                        sh.shard, sh.shards
                    ))));
                }
                Some(Arc::new(ThreadPool::new(cfg.workers.max(1))))
            }
            None => None,
        };
        let first = make_epoch(model, cfg.shard.as_ref(), shard_pool.as_ref(), 1)?;
        Ok(Arc::new(Server {
            cell: EpochCell::new(first),
            queue: AdmissionQueue::new(&cfg.queue),
            stats: ServeStats::default(),
            faults: FaultPlan::default(),
            epoch_seq: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            engine: Mutex::new(engine),
            replay,
            cfg,
            shard_pool,
        }))
    }

    /// The current epoch (tests and embedders; the wire path uses it
    /// per request).
    pub fn current_epoch(&self) -> Arc<ModelEpoch> {
        self.cell.current()
    }

    /// Total epochs published so far.
    pub fn epochs_published(&self) -> u64 {
        self.cell.published()
    }

    /// The live admission/completion ledger, rendered as the same
    /// `k=v` line `.stats` and the final `SERVE done` report use.
    pub fn ledger(&self) -> String {
        self.stats.render(
            self.queue.depth(),
            self.queue.high_water(),
            self.cell.published(),
        )
    }

    /// Request graceful shutdown: stop accepting, refuse new work,
    /// drain admitted requests, persist if armed. Idempotent; callable
    /// from any thread (e.g. a signal watcher).
    pub fn request_shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            self.queue.close();
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Run the accept loop until shutdown, then drain and (if the
    /// engine has persistence armed) commit a final checkpoint.
    /// Returns the final ledger line.
    ///
    /// # Errors
    /// [`ServeError::Io`] on listener failures,
    /// [`ServeError::Stream`] if the final checkpoint fails.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> Result<String, ServeError> {
        // Worker lanes: a dedicated pool broadcast, one drain loop per
        // lane, hosted on one coordinator thread.
        let lanes = self.cfg.workers.max(1);
        let pool = ThreadPool::new(lanes);
        let coordinator = {
            let srv = Arc::clone(self);
            std::thread::Builder::new()
                .name("affinity-serve-workers".into())
                .spawn(move || pool.broadcast(|_lane| srv.worker_loop()))?
        };

        // Optional churn: one replay tick per interval, so epochs keep
        // turning over while queries run.
        let churn = match self.cfg.churn_every {
            Some(every) => {
                let srv = Arc::clone(self);
                Some(
                    std::thread::Builder::new()
                        .name("affinity-serve-churn".into())
                        .spawn(move || {
                            let mut last = Instant::now();
                            while !srv.is_shutting_down() {
                                std::thread::sleep(POLL.min(every));
                                if last.elapsed() >= every {
                                    last = Instant::now();
                                    let _ = srv.tick(1);
                                }
                            }
                        })?,
                )
            }
            None => None,
        };

        // A listener failure shuts down too, and surfaces after the drain.
        let readers = accept_loop(self, &listener, "affinity-serve-conn")
            .inspect_err(|_| self.request_shutdown());

        // Drain: the queue is closed (request_shutdown), workers exit
        // when the backlog is empty, readers exit on the flag.
        if coordinator.join().is_err() {
            return Err(ServeError::Io(std::io::Error::other(
                "worker coordinator panicked",
            )));
        }
        for r in readers? {
            let _ = r.join();
        }
        if let Some(c) = churn {
            let _ = c.join();
        }

        let mut engine = self.engine.lock();
        if engine.snapshot_generation().is_some() {
            engine.checkpoint()?;
        }
        let ticks = engine.window().ticks();
        drop(engine);
        Ok(format!("{} ticks={ticks}", self.ledger()))
    }

    /// One worker lane: drain admitted requests until close + empty.
    fn worker_loop(&self) {
        while let Some(req) = self.queue.pop() {
            self.process(req);
        }
    }

    /// Execute one admitted request and answer it — exactly one
    /// response per admitted request, typed error on every failure
    /// path, panic contained to the request.
    fn process(&self, req: Request) {
        if let Some(deadline) = req.deadline {
            if Instant::now() >= deadline {
                ServeStats::bump(&self.stats.done_deadline);
                self.send(
                    &req.conn,
                    &format!("ERR {} DEADLINE queued past deadline\n", req.id),
                );
                return;
            }
        }
        if let Some(delay) = self.faults.slow_worker() {
            std::thread::sleep(delay);
        }
        let token = match req.deadline {
            Some(d) => CancelToken::until(d),
            None => CancelToken::new(),
        };
        // In-flight queries keep the epoch they started on even if a
        // refresh publishes a successor mid-execution.
        let epoch = self.cell.current();
        if req.statement.starts_with('!') {
            self.process_shard(&req, &epoch);
            return;
        }
        let result = catch_unwind(AssertUnwindSafe(|| epoch.execute(&req.statement, &token)));
        let response = match result {
            Ok(Ok(out)) => {
                ServeStats::bump(&self.stats.done_ok);
                let text = out.to_string();
                format!("OK {} {}\n{text}", req.id, text.lines().count())
            }
            Ok(Err(e)) => {
                let code = e.wire_code();
                if matches!(e, QlError::DeadlineExceeded) {
                    ServeStats::bump(&self.stats.done_deadline);
                } else {
                    ServeStats::bump(&self.stats.done_err);
                }
                format!("ERR {} {code} {}\n", req.id, one_line(&e.to_string()))
            }
            Err(_) => {
                ServeStats::bump(&self.stats.done_err);
                format!("ERR {} INTERNAL query execution panicked\n", req.id)
            }
        };
        self.send(&req.conn, &response);
    }

    /// Answer one coordinator shard request (`!`-prefixed statement)
    /// through [`affinity_coord::answer`] — the same implementation the
    /// in-process backend runs, so remote answers cannot drift from it.
    fn process_shard(&self, req: &Request, epoch: &ModelEpoch) {
        let Some(model) = epoch.sharded() else {
            ServeStats::bump(&self.stats.done_err);
            self.send(
                &req.conn,
                &format!(
                    "ERR {} PROTO shard requests need a shard server (--shard)\n",
                    req.id
                ),
            );
            return;
        };
        if epoch.is_poisoned() {
            ServeStats::bump(&self.stats.done_err);
            self.send(
                &req.conn,
                &format!("ERR {} INTERNAL epoch poisoned (injected fault)\n", req.id),
            );
            return;
        }
        let sreq = match decode_request(&req.statement) {
            Ok(r) => r,
            Err(e) => {
                ServeStats::bump(&self.stats.done_err);
                self.send(
                    &req.conn,
                    &format!("ERR {} PROTO {}\n", req.id, one_line(&e.to_string())),
                );
                return;
            }
        };
        // Only `!meta` reports ticks; skip the engine lock otherwise.
        let ticks = if matches!(sreq, ShardRequest::Meta) {
            self.engine.lock().window().ticks()
        } else {
            0
        };
        let shard = self.cfg.shard.as_ref().map_or(0, |s| s.shard);
        let result = catch_unwind(AssertUnwindSafe(|| {
            affinity_coord::answer(model, shard, ticks, epoch.epoch_id(), &sreq)
        }));
        let response = match result {
            Ok(Ok(resp)) => {
                ServeStats::bump(&self.stats.done_ok);
                let lines = encode_response(&resp);
                let mut text = format!("OK {} {}\n", req.id, lines.len());
                for line in &lines {
                    text.push_str(line);
                    text.push('\n');
                }
                text
            }
            Ok(Err(e)) => {
                ServeStats::bump(&self.stats.done_err);
                format!(
                    "ERR {} {} {}\n",
                    req.id,
                    e.wire_code(),
                    one_line(&e.to_string())
                )
            }
            Err(_) => {
                ServeStats::bump(&self.stats.done_err);
                format!("ERR {} INTERNAL shard request panicked\n", req.id)
            }
        };
        self.send(&req.conn, &response);
    }

    /// Ingest `count` deterministic replay ticks; publish a new epoch
    /// if any push refreshed the model. Returns
    /// `(total ticks, total refreshes, current epoch id)`.
    ///
    /// # Errors
    /// Propagates refresh failures.
    pub fn tick(&self, count: u64) -> Result<(u64, u64, u64), ServeError> {
        let mut engine = self.engine.lock();
        let samples = self.replay.samples() as u64;
        let n = self.replay.series_count();
        let mut refreshed_any = false;
        let mut row = vec![0.0; n];
        for _ in 0..count {
            let at = (engine.window().ticks() % samples) as usize;
            for (v, slot) in row.iter_mut().enumerate() {
                // afflint: allow(panic) -- replay matrix is server-owned, not wire input: at < samples by the modulo above, v < series_count by the loop bound
                *slot = self.replay.series(v)[at];
            }
            refreshed_any |= engine.push(&row)?;
        }
        if refreshed_any {
            self.publish_from(&engine)?;
        }
        let ticks = engine.window().ticks();
        let refreshes = engine.refreshes();
        drop(engine);
        Ok((ticks, refreshes, self.cell.current().epoch_id()))
    }

    /// Build and publish an epoch from the engine's current model. The
    /// engine lock must be held by the caller.
    fn publish_from(&self, engine: &StreamingEngine) -> Result<u64, ServeError> {
        let model = engine.model().ok_or(ServeError::NoModel)?;
        let id = self.epoch_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let epoch = make_epoch(model, self.cfg.shard.as_ref(), self.shard_pool.as_ref(), id)?;
        self.cell.publish(epoch);
        Ok(id)
    }

    /// Write one response to `conn`, stalled under its writer lock
    /// while a `stall-writer` fault is armed.
    fn send(&self, conn: &Conn, text: &str) {
        conn.send_after(text, || {
            if let Some(stall) = self.faults.stall_writer() {
                std::thread::sleep(stall);
            }
        });
    }

    /// Answer a `.command` inline.
    fn control(&self, cmd: &str, conn: &Arc<Conn>) {
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        let reply = match parts.first().copied() {
            Some("ping") => "+pong\n".to_string(),
            Some("epoch") => {
                let e = self.cell.current();
                let ticks = self.engine.lock().window().ticks();
                format!(
                    "+epoch id={} built_at={} ticks={ticks}\n",
                    e.epoch_id(),
                    e.built_at()
                )
            }
            Some("stats") => format!("+stats {}\n", self.ledger()),
            Some("tick") => {
                let count = parts
                    .get(1)
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|k| (1..=1_000_000).contains(k));
                match count {
                    Some(k) => match self.tick(k) {
                        Ok((ticks, refreshes, epoch)) => {
                            format!("+ticks total={ticks} refreshes={refreshes} epoch={epoch}\n")
                        }
                        Err(e) => format!("-err tick failed: {}\n", one_line(&e.to_string())),
                    },
                    None => "-err usage: .tick <1..=1000000>\n".to_string(),
                }
            }
            Some("refresh") => {
                let mut engine = self.engine.lock();
                match engine.refresh_auto() {
                    Ok(kind) => match self.publish_from(&engine) {
                        Ok(id) => format!(
                            "+refreshed epoch={id} kind={}\n",
                            match kind {
                                RefreshKind::Full => "full",
                                RefreshKind::Delta { .. } => "delta",
                            }
                        ),
                        Err(e) => format!("-err publish failed: {}\n", one_line(&e.to_string())),
                    },
                    Err(e) => format!("-err refresh failed: {}\n", one_line(&e.to_string())),
                }
            }
            Some("fault") if !self.cfg.chaos => "-err fault injection disabled\n".to_string(),
            Some("fault") => match ServeFault::parse(parts.get(1..).unwrap_or(&[])) {
                Ok(ServeFault::PoisonEpoch) => {
                    self.cell.current().poison();
                    "+fault poisoned current epoch\n".to_string()
                }
                Ok(ServeFault::RefreshNow) => {
                    let mut engine = self.engine.lock();
                    match engine
                        .refresh_auto()
                        .map_err(ServeError::from)
                        .and_then(|_| self.publish_from(&engine))
                    {
                        Ok(id) => format!("+fault refreshed epoch={id}\n"),
                        Err(e) => format!("-err refresh failed: {}\n", one_line(&e.to_string())),
                    }
                }
                Ok(f) => {
                    self.faults.arm(f);
                    "+fault armed\n".to_string()
                }
                Err(msg) => format!("-err {msg}\n"),
            },
            Some("shutdown") => {
                self.send(conn, "+bye\n");
                self.request_shutdown();
                return;
            }
            Some(other) => format!("-err unknown command '.{}'\n", one_line(other)),
            None => "-err empty command\n".to_string(),
        };
        self.send(conn, &reply);
    }
}

impl LineHandler for Server {
    fn stopping(&self) -> bool {
        self.is_shutting_down()
    }

    /// Count and answer a transport-level protocol rejection: the raw
    /// line never becomes a request, but it still lands in the ledger
    /// (`received` + `rejected`) and gets a typed `ERR ... PROTO`.
    fn reject(&self, conn: &Arc<Conn>, id: &str, msg: &str) {
        ServeStats::bump(&self.stats.received);
        ServeStats::bump(&self.stats.rejected);
        self.send(conn, &format!("ERR {id} PROTO {msg}\n"));
    }

    /// Dispatch one complete request line.
    fn line(&self, conn: &Arc<Conn>, line: &str) {
        if line.is_empty() {
            return;
        }
        if let Some(cmd) = line.strip_prefix('.') {
            self.control(cmd, conn);
            return;
        }
        ServeStats::bump(&self.stats.received);
        let Some((id, statement)) = line.split_once(' ') else {
            ServeStats::bump(&self.stats.rejected);
            self.send(
                conn,
                &format!("ERR {} PROTO expected '<id> <statement>'\n", bounded(line)),
            );
            return;
        };
        let req = Request {
            id: id.to_string(),
            statement: statement.to_string(),
            deadline: self.cfg.queue.deadline.map(|d| Instant::now() + d),
            conn: Arc::clone(conn),
        };
        match self.queue.push(req) {
            Admission::Admitted => ServeStats::bump(&self.stats.admitted),
            Admission::AdmittedShedding(old) => {
                ServeStats::bump(&self.stats.admitted);
                ServeStats::bump(&self.stats.shed);
                self.send(
                    &old.conn,
                    &format!("ERR {} OVERLOADED shed by newer request\n", old.id),
                );
            }
            Admission::Rejected(req) => {
                ServeStats::bump(&self.stats.rejected);
                let why = if self.is_shutting_down() {
                    "shutting down"
                } else {
                    "queue full"
                };
                self.send(&req.conn, &format!("ERR {} OVERLOADED {why}\n", req.id));
            }
        }
    }
}

/// Freeze an engine model into an epoch — global, or sharded when the
/// server runs in shard mode.
fn make_epoch(
    model: &Model,
    shard: Option<&ShardServing>,
    pool: Option<&Arc<ThreadPool>>,
    id: u64,
) -> Result<Arc<ModelEpoch>, ServeError> {
    match (shard, pool) {
        (Some(sh), Some(pool)) => {
            let n = model.affine().series_count();
            let plan = ShardPlan::blocked(n, sh.shards);
            let sharded = ShardedModel::from_global(
                model.data(),
                model.affine(),
                plan,
                &sh.indexed,
                Arc::clone(pool),
            )?;
            Ok(ModelEpoch::from_sharded(
                Arc::new(sharded),
                Vec::new(),
                id,
                model.built_at,
            )?)
        }
        _ => Ok(ModelEpoch::from_model(model, Vec::new(), id)?),
    }
}
