//! `affinity` — command-line front end to the framework.
//!
//! ```text
//! affinity generate <sensor|stock> <path.afn> [n] [m]        seeded synthetic dataset
//! affinity info     <path.afn>                               shape + labels
//! affinity csv      <path.afn> <out.csv>                     export to CSV
//! affinity query    [--ooc[=MB]] [--shards[=K]] <path.afn> "<stmt>" [...]
//! affinity query    [--quiet] --snapshot <dir> "<stmt>" [...]  query a persisted model
//! affinity snapshot <path.afn> <dir>                         build + persist a model
//! affinity quality  <path.afn>                               LSFD quality report
//! affinity serve    [flags]                                  concurrent query service
//! affinity coord    [flags]                                  distributed shard coordinator
//! ```
//!
//! Query statements use the `affinity-ql` grammar, e.g.
//! `"MET correlation > 0.9"`, `"MEC mean OF STK0, STK1"`,
//! `"MER covariance BETWEEN 0 AND 1"`.
//!
//! With `--ooc` the model (AFCLST + SYMEX + MEC engine + SCAPE index)
//! is built by *streaming* columns through a bounded-memory
//! [`CachedStore`] — the matrix is never materialized, so stores far
//! larger than RAM work; the answers are bit-for-bit identical to the
//! resident path. The optional `=MB` sets the column-cache budget
//! (default 64 MB). The build passes announce their column sequences,
//! so each cache miss reads the announced columns after it in the same
//! region request.
//!
//! With `--shards[=K]` (default K = 4) the model is partitioned into
//! `K` shards along AFCLST cluster cuts and statements are answered
//! through the cross-shard merge layer (`affinity_shard`). Answers are
//! **bit-identical** to the unsharded path — sharding is a scale-out
//! knob, not an approximation — and the flag composes with `--ooc`
//! (each shard streams columns through the same bounded cache).
//!
//! `affinity snapshot` builds the full model once (AFCLST + SYMEX +
//! SCAPE index over the store's trailing window) and commits it to a
//! crash-safe snapshot directory (atomic-rename snapshot + delta
//! journal — see `affinity_stream::persist`). `affinity query
//! --snapshot <dir>` then answers statements by *opening* that model in
//! O(model bytes) — no clustering, fitting, or index build — replaying
//! any journaled refreshes and reporting what recovery did on stderr
//! (`--quiet` suppresses the report; the *exit code* still tells
//! scripts what happened: 0 = clean open, 3 = recovery had to heal
//! damage — torn journal bytes dropped, stale journal discarded,
//! journal reset, or a staged temp file removed). Snapshots store no
//! labels, so statements address series as `S<id>` or by bare numeric
//! id.
//!
//! `affinity serve` runs the long-lived concurrent query service of
//! `affinity_serve`: epoch-swapped model snapshots, a bounded admission
//! queue, deadline propagation, graceful drain on SIGINT/SIGTERM or
//! `.shutdown`, and warm resume from a snapshot directory. See
//! `serve_usage` below (or run `affinity serve --help`) for flags, and
//! `affinity_serve::server` for the wire protocol. With
//! `--shard I --shards K` the server holds shard `I` of a `K`-shard
//! fleet and additionally answers the coordinator's `!`-prefixed shard
//! requests.
//!
//! `affinity coord` runs the distributed front end of `affinity_coord`:
//! it spawns (or `--attach`es to) `K` shard servers, routes statements
//! to owner shards with retries/timeouts/circuit breakers, merges
//! exactly, supervises failover (kill a shard server and it is
//! respawned, re-healed from its snapshot + catch-up ticks, and only
//! then readmitted), and degrades gracefully — answers computed while a
//! shard is down come back `DEGRADED <missing-shards>` (or typed
//! `UNAVAILABLE` with `--strict`), never as a silent subset.
//!
//! SIGINT/SIGTERM are trapped by the long-running paths (`snapshot`
//! builds and `serve`): the current commit-protocol stage finishes, the
//! process exits cleanly, and on-disk state is never torn mid-write.

use affinity::core::prelude::*;
use affinity::core::quality::quality_report;
use affinity::data::generator::{sensor_dataset, stock_dataset, SensorConfig, StockConfig};
use affinity::ql::Session;
use affinity::serve::{ServeConfig, Server, ShedPolicy};
use affinity::shard::ShardedModel;
use affinity::storage::{CachedStore, MatrixStore};
use affinity::stream::{RecoveryReport, StreamingConfig, StreamingEngine};
use std::process::ExitCode;
use std::time::Duration;

/// Cooperative SIGINT/SIGTERM trapping for the long-running paths: the
/// handler only flips a flag; commit-protocol stages run to completion
/// and the main thread exits cleanly at the next stage boundary.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_signum: i32) {
        // Async-signal-safe: a single atomic store.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    #[cfg(unix)]
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install the flag-setting handler for SIGINT (2) and SIGTERM (15).
    pub fn install() {
        #[cfg(unix)]
        // SAFETY: installing an async-signal-safe handler function with
        // the default flags; no state beyond the atomic is touched.
        unsafe {
            signal(2, on_signal as *const () as usize);
            signal(15, on_signal as *const () as usize);
        }
    }

    /// Whether a trapped signal has been received.
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  affinity generate <sensor|stock> <path.afn> [n] [m]\n  affinity info <path.afn>\n  affinity csv <path.afn> <out.csv>\n  affinity query [--ooc[=MB]] [--shards[=K]] <path.afn> \"<statement>\" [more statements...]\n  affinity query [--quiet] --snapshot <snapshot-dir> \"<statement>\" [more statements...]\n  affinity snapshot <path.afn> <snapshot-dir>\n  affinity quality <path.afn>\n  affinity serve [--gen <sensor|stock>] [--series N] [--samples M] [--window W] [--resume DIR | --persist DIR]\n                 [--port P] [--workers N] [--queue CAP] [--deadline-ms D] [--shed-oldest] [--churn-ms MS] [--chaos] [--quiet]\n                 [--shard I --shards K]\n  affinity coord [--shards K] [--gen <sensor|stock>] [--series N] [--samples M] [--window W] [--workers N]\n                 [--port P] [--strict] [--timeout-ms D] [--retries R] [--persist-root DIR] [--chaos] [--quiet]\n  affinity coord --attach <addr,addr,...> [--port P] [--strict] [--timeout-ms D] [--retries R] [--quiet]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result = match cmd.as_str() {
        "generate" => generate(&args[1..]).map(|()| ExitCode::SUCCESS),
        "info" => info(&args[1..]).map(|()| ExitCode::SUCCESS),
        "csv" => csv(&args[1..]).map(|()| ExitCode::SUCCESS),
        "query" => query(&args[1..]),
        "snapshot" => snapshot(&args[1..]).map(|()| ExitCode::SUCCESS),
        "quality" => quality(&args[1..]).map(|()| ExitCode::SUCCESS),
        "serve" => serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        "coord" => coord(&args[1..]).map(|()| ExitCode::SUCCESS),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn generate(args: &[String]) -> Result<(), String> {
    let [kind, path, rest @ ..] = args else {
        return Err("generate needs <sensor|stock> <path.afn>".into());
    };
    let n: Option<usize> = rest
        .first()
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "bad n")?;
    let m: Option<usize> = rest
        .get(1)
        .map(|s| s.parse())
        .transpose()
        .map_err(|_| "bad m")?;
    let data = match kind.as_str() {
        "sensor" => {
            let mut cfg = SensorConfig::default();
            if let Some(n) = n {
                cfg.series = n;
            }
            if let Some(m) = m {
                cfg.samples = m;
            }
            sensor_dataset(&cfg)
        }
        "stock" => {
            let mut cfg = StockConfig::default();
            if let Some(n) = n {
                cfg.series = n;
            }
            if let Some(m) = m {
                cfg.samples = m;
            }
            stock_dataset(&cfg)
        }
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    MatrixStore::create(path, &data).map_err(|e| e.to_string())?;
    println!(
        "wrote {} series x {} samples to {path}",
        data.series_count(),
        data.samples()
    );
    Ok(())
}

fn open(path: &str) -> Result<affinity::data::DataMatrix, String> {
    MatrixStore::open(path)
        .and_then(|s| s.read_all())
        .map_err(|e| e.to_string())
}

fn info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("info needs <path.afn>".into());
    };
    let data = open(path)?;
    println!("series:  {}", data.series_count());
    println!("samples: {}", data.samples());
    println!("pairs:   {}", data.pair_count());
    let shown = data.series_count().min(8);
    let labels: Vec<&str> = (0..shown).map(|v| data.label(v)).collect();
    println!(
        "labels:  {}{}",
        labels.join(", "),
        if data.series_count() > shown {
            ", …"
        } else {
            ""
        }
    );
    Ok(())
}

fn csv(args: &[String]) -> Result<(), String> {
    let [path, out] = args else {
        return Err("csv needs <path.afn> <out.csv>".into());
    };
    let data = open(path)?;
    affinity::data::csv::save_csv(&data, out).map_err(|e| e.to_string())?;
    println!("exported to {out}");
    Ok(())
}

/// Did recovery have to *heal* damage (as opposed to a routine journal
/// replay)? This is what distinguishes exit code 3 from 0.
fn recovery_healed(report: &RecoveryReport) -> bool {
    report.torn_bytes_dropped > 0
        || report.stale_journal_discarded
        || report.journal_reset
        || report.staged_file_removed
}

/// Print the full recovery report to stderr, one field per aspect, so
/// operators see exactly what opening the snapshot found and did.
fn print_recovery(report: &RecoveryReport, series: usize) {
    eprintln!(
        "snapshot: generation {} (id {:#018x}), {} series, {} journaled refresh(es) replayed",
        report.generation, report.snapshot_id, series, report.replayed_records
    );
    if report.torn_bytes_dropped > 0 {
        eprintln!(
            "snapshot: {} torn journal byte(s) dropped from the tail",
            report.torn_bytes_dropped
        );
    }
    if report.stale_journal_discarded {
        eprintln!("snapshot: stale journal (older snapshot generation) discarded");
    }
    if report.journal_reset {
        eprintln!("snapshot: journal missing or unusable; started fresh");
    }
    if report.staged_file_removed {
        eprintln!("snapshot: leftover staged temp file from an interrupted commit removed");
    }
}

fn query(args: &[String]) -> Result<ExitCode, String> {
    // Optional leading flags (any order): `--ooc[=MB]` streams the
    // build through a bounded-memory column cache instead of
    // materializing the matrix; `--shards[=K]` partitions the model
    // along cluster cuts and answers through the cross-shard merge
    // layer (bit-identical answers, so purely a scale-out knob).
    let mut ooc_budget: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut from_snapshot = false;
    let mut quiet = false;
    let mut rest: &[String] = args;
    while let Some(flag) = rest.first().map(String::as_str) {
        if flag == "--snapshot" {
            from_snapshot = true;
        } else if flag == "--quiet" {
            quiet = true;
        } else if flag == "--ooc" {
            ooc_budget = Some(64usize << 20);
        } else if let Some(mb) = flag.strip_prefix("--ooc=") {
            let mb: usize = mb.parse().map_err(|_| "bad --ooc=<MB> value")?;
            ooc_budget = Some(mb << 20);
        } else if flag == "--shards" {
            shards = Some(4);
        } else if let Some(k) = flag.strip_prefix("--shards=") {
            let k: usize = k.parse().map_err(|_| "bad --shards=<K> value")?;
            if k == 0 {
                return Err("--shards needs K >= 1".into());
            }
            shards = Some(k);
        } else {
            break;
        }
        rest = &rest[1..];
    }
    if from_snapshot && ooc_budget.is_some() {
        return Err("--snapshot opens a persisted model; --ooc does not apply".into());
    }
    if from_snapshot && shards.is_some() {
        return Err("--snapshot opens a persisted model; --shards does not apply".into());
    }
    if quiet && !from_snapshot {
        return Err("--quiet only applies to --snapshot (it silences the recovery report)".into());
    }
    let [path, statements @ ..] = rest else {
        return Err("query needs <path.afn> and at least one statement".into());
    };
    if statements.is_empty() {
        return Err("query needs at least one statement".into());
    }
    let run_statements = |session: &Session| {
        for stmt in statements {
            println!("> {stmt}");
            match session.execute(stmt) {
                Ok(out) => print!("{out}"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
    };
    if from_snapshot {
        let (model, report) = affinity::stream::open_model(path).map_err(|e| e.to_string())?;
        if !quiet {
            print_recovery(&report, model.affine.series_count());
        }
        let session = Session::open_snapshot(&model, Vec::new()).map_err(|e| e.to_string())?;
        run_statements(&session);
        // Scripts watch the exit code even with `--quiet`: 3 means
        // recovery healed damage, 0 means a clean open.
        return Ok(if recovery_healed(&report) {
            ExitCode::from(3)
        } else {
            ExitCode::SUCCESS
        });
    }
    if let Some(budget) = ooc_budget {
        let store = MatrixStore::open(path).map_err(|e| e.to_string())?;
        let labels = store.labels().to_vec();
        let source = CachedStore::with_budget_bytes(store, budget);
        eprintln!(
            "out-of-core: caching up to {} of {} columns ({} MB budget)",
            source.capacity().min(source.store().series_count()),
            source.store().series_count(),
            budget >> 20
        );
        if let Some(k) = shards {
            let model =
                ShardedModel::build(&source, &SymexParams::default(), k, &Measure::EXTENDED)
                    .map_err(|e| e.to_string())?;
            eprintln!(
                "sharded: {} shards cut along cluster boundaries over {} series",
                model.plan().shards(),
                model.series_count()
            );
            let session = Session::from_sharded(&model, labels).map_err(|e| e.to_string())?;
            run_statements(&session);
        } else {
            let affine = Symex::new(SymexParams::default())
                .run(&source)
                .map_err(|e| e.to_string())?;
            let session = Session::from_source(&source, labels, &affine, &Measure::EXTENDED)
                .map_err(|e| e.to_string())?;
            run_statements(&session);
        }
    } else {
        let data = open(path)?;
        if let Some(k) = shards {
            let model = ShardedModel::build(&data, &SymexParams::default(), k, &Measure::EXTENDED)
                .map_err(|e| e.to_string())?;
            eprintln!(
                "sharded: {} shards cut along cluster boundaries over {} series",
                model.plan().shards(),
                model.series_count()
            );
            let session =
                Session::from_sharded(&model, data.labels().to_vec()).map_err(|e| e.to_string())?;
            run_statements(&session);
        } else {
            let affine = Symex::new(SymexParams::default())
                .run(&data)
                .map_err(|e| e.to_string())?;
            let session =
                Session::new(&data, &affine, &Measure::EXTENDED).map_err(|e| e.to_string())?;
            run_statements(&session);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn snapshot(args: &[String]) -> Result<(), String> {
    let [path, dir] = args else {
        return Err("snapshot needs <path.afn> <snapshot-dir>".into());
    };
    // Long-running path: trap SIGINT/SIGTERM and bail out cleanly at
    // stage boundaries — never mid-commit, so the directory is either
    // absent/old or fully committed.
    sig::install();
    let store = MatrixStore::open(path).map_err(|e| e.to_string())?;
    let (n, m) = (store.series_count(), store.samples());
    // The model window is the store's full history; the extended measure
    // set matches what `affinity query` indexes, so `query --snapshot`
    // answers the same statements the same way.
    let mut cfg = StreamingConfig::new(m);
    cfg.indexed = Measure::EXTENDED.to_vec();
    let t0 = std::time::Instant::now();
    let mut engine = StreamingEngine::from_source(cfg, &store).map_err(|e| e.to_string())?;
    let built = t0.elapsed();
    if sig::requested() {
        return Err("interrupted by signal after build; nothing was written".into());
    }
    let t1 = std::time::Instant::now();
    let id = engine.persist_to(dir).map_err(|e| e.to_string())?;
    println!(
        "persisted model over {n} series x {m} samples to {dir} \
         (snapshot id {id:#018x}; built in {:.2?}, committed in {:.2?})",
        built,
        t1.elapsed()
    );
    if sig::requested() {
        // The commit above ran to completion; just acknowledge.
        eprintln!("signal received; snapshot committed cleanly before exit");
    }
    Ok(())
}

fn serve(args: &[String]) -> Result<(), String> {
    let mut gen = "sensor".to_string();
    let mut series = 24usize;
    let mut samples = 512usize;
    let mut window = 64usize;
    let mut resume_dir: Option<String> = None;
    let mut persist_dir: Option<String> = None;
    let mut port: u16 = 4243;
    let mut cfg = ServeConfig::default();
    let mut quiet = false;
    let mut shard: Option<usize> = None;
    let mut shards: Option<usize> = None;

    fn take<'a>(it: &mut std::slice::Iter<'a, String>, name: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{name} needs a value"))
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--gen" => gen = take(&mut it, "--gen")?.clone(),
            "--series" => {
                series = take(&mut it, "--series")?
                    .parse()
                    .map_err(|_| "bad --series")?;
            }
            "--samples" => {
                samples = take(&mut it, "--samples")?
                    .parse()
                    .map_err(|_| "bad --samples")?;
            }
            "--window" => {
                window = take(&mut it, "--window")?
                    .parse()
                    .map_err(|_| "bad --window")?;
            }
            "--resume" => resume_dir = Some(take(&mut it, "--resume")?.clone()),
            "--persist" => persist_dir = Some(take(&mut it, "--persist")?.clone()),
            "--port" => {
                port = take(&mut it, "--port")?.parse().map_err(|_| "bad --port")?;
            }
            "--workers" => {
                cfg.workers = take(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "bad --workers")?;
                if cfg.workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--queue" => {
                cfg.queue.capacity = take(&mut it, "--queue")?
                    .parse()
                    .map_err(|_| "bad --queue")?;
                if cfg.queue.capacity == 0 {
                    return Err("--queue must be >= 1".into());
                }
            }
            "--deadline-ms" => {
                let ms: u64 = take(&mut it, "--deadline-ms")?
                    .parse()
                    .map_err(|_| "bad --deadline-ms")?;
                cfg.queue.deadline = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--shed-oldest" => cfg.queue.shed = ShedPolicy::ShedOldest,
            "--churn-ms" => {
                let ms: u64 = take(&mut it, "--churn-ms")?
                    .parse()
                    .map_err(|_| "bad --churn-ms")?;
                cfg.churn_every = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--chaos" => cfg.chaos = true,
            "--quiet" => quiet = true,
            "--shard" => {
                shard = Some(
                    take(&mut it, "--shard")?
                        .parse()
                        .map_err(|_| "bad --shard")?,
                );
            }
            "--shards" => {
                shards = Some(
                    take(&mut it, "--shards")?
                        .parse()
                        .map_err(|_| "bad --shards")?,
                );
            }
            other => return Err(format!("unknown serve flag '{other}'")),
        }
    }
    match (shard, shards) {
        (None, None) => {}
        (Some(i), Some(k)) => {
            if k == 0 {
                return Err("--shards must be >= 1".into());
            }
            if i >= k {
                return Err(format!("--shard {i} must be < --shards {k}"));
            }
            cfg.shard = Some(affinity::serve::ShardServing::new(i, k));
        }
        _ => return Err("--shard and --shards must be given together".into()),
    }
    if resume_dir.is_some() && persist_dir.is_some() {
        return Err("--resume and --persist are mutually exclusive \
                    (--resume re-arms persistence on the same directory)"
            .into());
    }
    if window < 2 {
        return Err("--window must be >= 2".into());
    }

    // Deterministic replay source: the seeded synthetic dataset. Both a
    // fresh server and a resumed one regenerate the identical matrix, so
    // tick t always carries the same values — the bit-identity anchor.
    let replay = match gen.as_str() {
        "sensor" => sensor_dataset(&SensorConfig {
            series,
            samples,
            ..SensorConfig::default()
        }),
        "stock" => stock_dataset(&StockConfig {
            series,
            samples,
            ..StockConfig::default()
        }),
        other => return Err(format!("unknown dataset kind '{other}'")),
    };
    if samples < window {
        return Err("--samples must be >= --window".into());
    }

    let mut scfg = StreamingConfig::new(window);
    scfg.indexed = Measure::EXTENDED.to_vec();

    let engine = if let Some(dir) = &resume_dir {
        let (engine, report) =
            StreamingEngine::resume(scfg, dir).map_err(|e| format!("resume {dir}: {e}"))?;
        if !quiet {
            print_recovery(&report, series);
        }
        if recovery_healed(&report) && !quiet {
            eprintln!("serve: recovery healed damage; continuing from the last durable state");
        }
        engine
    } else {
        let mut engine = StreamingEngine::new(series, scfg);
        // Warm the window so the first model exists before we listen.
        let mut row = vec![0.0; series];
        for t in 0..window {
            for (v, slot) in row.iter_mut().enumerate() {
                *slot = replay.series(v)[t];
            }
            engine.push(&row).map_err(|e| e.to_string())?;
        }
        if let Some(dir) = &persist_dir {
            engine
                .persist_to(dir)
                .map_err(|e| format!("persist {dir}: {e}"))?;
        }
        engine
    };

    let (workers, qcap) = (cfg.workers, cfg.queue.capacity);
    let server = Server::new(engine, replay, cfg).map_err(|e| e.to_string())?;
    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    // Long-running path: SIGINT/SIGTERM request a graceful drain — stop
    // accepting, answer the backlog, checkpoint if persistence is
    // armed, exit 0. Installed *before* the startup line below: anyone
    // parsing that line may signal us immediately after reading it.
    sig::install();

    // Machine-parsable startup line (tests read the ephemeral port off
    // it when started with --port 0).
    println!("SERVE addr={addr} workers={workers} queue={qcap}");
    {
        let srv = std::sync::Arc::clone(&server);
        std::thread::Builder::new()
            .name("affinity-serve-signals".into())
            .spawn(move || {
                while !srv.is_shutting_down() {
                    if sig::requested() {
                        srv.request_shutdown();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
            .map_err(|e| e.to_string())?;
    }

    let ledger = server.serve(listener).map_err(|e| e.to_string())?;
    println!("SERVE done {ledger}");
    Ok(())
}

fn coord(args: &[String]) -> Result<(), String> {
    use affinity::coord::{
        BreakerPolicy, CoordServer, CoordStats, Coordinator, RemoteShard, RetryPolicy, ShardSpec,
        Supervisor,
    };

    let mut shards = 2usize;
    let mut gen = "sensor".to_string();
    let mut series = 24usize;
    let mut samples = 512usize;
    let mut window = 64usize;
    let mut workers = 2usize;
    let mut port: u16 = 4244;
    let mut strict = false;
    let mut timeout_ms = 2000u64;
    let mut retries = 3u32;
    let mut persist_root: Option<String> = None;
    let mut chaos = false;
    let mut quiet = false;
    let mut attach: Option<Vec<String>> = None;

    fn take<'a>(it: &mut std::slice::Iter<'a, String>, name: &str) -> Result<&'a String, String> {
        it.next().ok_or_else(|| format!("{name} needs a value"))
    }
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--shards" => {
                shards = take(&mut it, "--shards")?
                    .parse()
                    .map_err(|_| "bad --shards")?;
            }
            "--gen" => gen = take(&mut it, "--gen")?.clone(),
            "--series" => {
                series = take(&mut it, "--series")?
                    .parse()
                    .map_err(|_| "bad --series")?;
            }
            "--samples" => {
                samples = take(&mut it, "--samples")?
                    .parse()
                    .map_err(|_| "bad --samples")?;
            }
            "--window" => {
                window = take(&mut it, "--window")?
                    .parse()
                    .map_err(|_| "bad --window")?;
            }
            "--workers" => {
                workers = take(&mut it, "--workers")?
                    .parse()
                    .map_err(|_| "bad --workers")?;
                if workers == 0 {
                    return Err("--workers must be >= 1".into());
                }
            }
            "--port" => port = take(&mut it, "--port")?.parse().map_err(|_| "bad --port")?,
            "--strict" => strict = true,
            "--timeout-ms" => {
                timeout_ms = take(&mut it, "--timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --timeout-ms")?;
                if timeout_ms == 0 {
                    return Err("--timeout-ms must be >= 1".into());
                }
            }
            "--retries" => {
                retries = take(&mut it, "--retries")?
                    .parse()
                    .map_err(|_| "bad --retries")?;
                if retries == 0 {
                    return Err("--retries must be >= 1".into());
                }
            }
            "--persist-root" => persist_root = Some(take(&mut it, "--persist-root")?.clone()),
            "--chaos" => chaos = true,
            "--quiet" => quiet = true,
            "--attach" => {
                attach = Some(
                    take(&mut it, "--attach")?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect(),
                );
            }
            other => return Err(format!("unknown coord flag '{other}'")),
        }
    }
    if shards == 0 {
        return Err("--shards must be >= 1".into());
    }

    // Build the fleet: spawn shard-server children, or attach to
    // already-running ones.
    let (specs, children, addrs) = match attach {
        Some(addrs) => {
            if addrs.is_empty() {
                return Err("--attach needs at least one addr".into());
            }
            (Vec::new(), Vec::new(), addrs)
        }
        None => {
            if shards > series {
                return Err(format!("--shards {shards} must be <= --series {series}"));
            }
            let exe = std::env::current_exe().map_err(|e| e.to_string())?;
            let specs: Vec<ShardSpec> = (0..shards)
                .map(|i| ShardSpec {
                    exe: exe.clone(),
                    shard: i,
                    shards,
                    gen: gen.clone(),
                    series,
                    samples,
                    window,
                    workers,
                    chaos,
                    persist_dir: persist_root
                        .as_ref()
                        .map(|root| std::path::Path::new(root).join(format!("shard{i}"))),
                })
                .collect();
            let (children, addrs) =
                affinity::coord::spawn_fleet(&specs).map_err(|e| e.to_string())?;
            for (i, (child, addr)) in children.iter().zip(&addrs).enumerate() {
                println!("COORD shard={i} pid={} addr={addr}", child.id());
            }
            (specs, children, addrs)
        }
    };

    let stats = std::sync::Arc::new(CoordStats::new());
    let retry = RetryPolicy {
        attempts: retries,
        timeout: Duration::from_millis(timeout_ms),
        ..RetryPolicy::default()
    };
    let remotes: Vec<std::sync::Arc<RemoteShard>> = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            std::sync::Arc::new(RemoteShard::new(
                i,
                addr.clone(),
                retry,
                BreakerPolicy::default(),
                std::sync::Arc::clone(&stats),
            ))
        })
        .collect();
    let backends = remotes
        .iter()
        .map(|r| std::sync::Arc::clone(r) as std::sync::Arc<dyn affinity::coord::ShardBackend>)
        .collect();
    let coordinator = match Coordinator::new(backends, Vec::new(), strict, stats) {
        Ok(c) => c,
        Err(e) => {
            for mut c in children {
                let _ = c.kill();
                let _ = c.wait();
            }
            return Err(e.to_string());
        }
    };
    let fleet = remotes.len();
    let server = CoordServer::with_chaos(coordinator, remotes, chaos);

    let supervisor = Supervisor::new(
        &server,
        specs,
        children,
        Box::new(move |event| {
            if !quiet {
                println!("COORD {event}");
            }
        }),
    );
    let monitor = {
        let sup = std::sync::Arc::clone(&supervisor);
        std::thread::Builder::new()
            .name("affinity-coord-supervisor".into())
            .spawn(move || sup.run())
            .map_err(|e| e.to_string())?
    };

    let listener = std::net::TcpListener::bind(("127.0.0.1", port))
        .map_err(|e| format!("bind 127.0.0.1:{port}: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;

    sig::install();
    println!("COORD addr={addr} shards={fleet} strict={strict}");
    {
        let srv = std::sync::Arc::clone(&server);
        std::thread::Builder::new()
            .name("affinity-coord-signals".into())
            .spawn(move || {
                while !srv.is_shutting_down() {
                    if sig::requested() {
                        srv.request_shutdown();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            })
            .map_err(|e| e.to_string())?;
    }

    let result = server.serve(listener).map_err(|e| e.to_string());
    supervisor.stop();
    let _ = monitor.join();
    supervisor.shutdown_children();
    let ledger = result?;
    println!("COORD done {ledger}");
    Ok(())
}

fn quality(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("quality needs <path.afn>".into());
    };
    let data = open(path)?;
    let affine = Symex::new(SymexParams::default())
        .run(&data)
        .map_err(|e| e.to_string())?;
    // Sample for big sets: cap the scored count around 20k.
    let stride = (affine.len() / 20_000).max(1);
    let report = quality_report(&data, &affine, stride, 10);
    println!("{}", report.summary());
    println!("\nworst relationships:");
    for rq in &report.worst {
        println!(
            "  ({}, {})  LSFD {:.4e}",
            data.label(rq.pair.u),
            data.label(rq.pair.v),
            rq.lsfd
        );
    }
    Ok(())
}
