//! One run of one workload: the script every workload executes.
//!
//! `setup` ×3 → `build` ×R → `persist` ×R (snapshot commit, then
//! snapshot → first answer) → `serve` (verify pass; then the point, mec
//! and scan streams back to back over loopback TCP, one closed-loop
//! client) → `refresh` (tick batches; beside the streams when the
//! workload's ticker is open-loop) → checks. A traced run adds a load
//! pass of the same streams with the workload's clients. Load generator and system under test share this process.
//! Work is fixed by count, so two builds of the program do equal work.

use crate::check::{score, Score};
use crate::client::{
    run_refresh, run_stream, Conn, RefreshResult, RefreshTarget, Status, StreamResult,
};
use crate::gen::{self, Class, Setup, CLASSES};
use crate::layers;
use crate::spec::{Spec, Ticker, Topology, END_TO_END, PER_LAYER};
use crate::stats::{fnv1a_from, kv_u64, median, percentile, sorted, FNV_OFFSET};
use crate::sut::{self, Engine, Fleet, Mono};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

type Res<T> = Result<T, String>;

/// Set-up is repeated so that its reported time is a median.
const SETUP_REPS: u32 = 3;
/// Worker lanes of every server, as the serving benches set them.
const WORKERS: usize = 2;
/// Sanity limits of the answer check; the measured values sit an order
/// of magnitude below (see the README) and are reported as metrics.
const MAX_MEC_RMSE_PCT: f64 = 10.0;
const MAX_MET_MISS_FRAC: f64 = 0.5;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The end-to-end metrics (untraced run) or the per-layer ones.
    pub metrics: Vec<Metric>,
    /// Digests of the generated inputs (window data, tick stream,
    /// statements, schedules) and of every verified response body.
    pub digests: [u64; 5],
    /// Human-readable lines: phase times, check values, violations.
    pub notes: Vec<String>,
}

/// The serving topology of a run.
enum Served {
    Mono(Mono),
    Fleet(Fleet),
}

impl Served {
    fn addr(&self) -> &str {
        match self {
            Served::Mono(m) => &m.addr,
            Served::Fleet(f) => &f.addr,
        }
    }

    fn refresh_target(&self) -> RefreshTarget {
        match self {
            Served::Mono(m) => RefreshTarget {
                tick_addr: m.addr.clone(),
                epoch_addrs: vec![m.addr.clone()],
            },
            Served::Fleet(f) => RefreshTarget {
                tick_addr: f.addr.clone(),
                epoch_addrs: f.shard_addrs(),
            },
        }
    }
}

/// The ledger identities of a `serve` `.stats` line; what breaks, if
/// anything.
fn serve_ledger_violation(line: &str) -> Option<String> {
    let g = |k| kv_u64(line, k);
    let balanced = g("received") == g("admitted") + g("rejected")
        && g("admitted") == g("ok") + g("err") + g("deadline") + g("shed")
        && g("depth") == 0;
    let clean = g("rejected") + g("shed") + g("err") + g("deadline") == 0;
    (!balanced || !clean || !line.starts_with("+stats")).then(|| format!("serve ledger: {line}"))
}

/// The two identities of a coordinator `.stats` line.
fn coord_ledger_violation(line: &str) -> Option<String> {
    let g = |k| kv_u64(line, k);
    let balanced = g("routed") == g("merged") + g("retried") + g("degraded") + g("failed")
        && g("stmts") == g("ok") + g("degraded_answers") + g("unavailable") + g("errors");
    let clean = g("retried")
        + g("degraded")
        + g("failed")
        + g("degraded_answers")
        + g("unavailable")
        + g("errors")
        == 0;
    (!balanced || !clean || !line.starts_with("+stats")).then(|| format!("coord ledger: {line}"))
}

fn stats_line(addr: &str) -> Res<String> {
    Conn::connect(addr)
        .and_then(|mut c| c.control(".stats"))
        .map_err(|e| format!(".stats: {e}"))
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Verified {
    /// Body digest per class and statement, in pool order.
    digests: Vec<Vec<u64>>,
    /// Digest over all of them.
    all: u64,
    mec_rmse_pct: f64,
    met_miss_frac: f64,
    attempted: u64,
    failed: u64,
}

/// Send every distinct statement once, untimed: score each answer
/// against its exact reference, keep each body's digest (the timed
/// streams must reproduce it), and on the fleet compare each body byte
/// for byte with the monolithic session's.
fn verify(addr: &str, setup: &Setup, fleet: bool, notes: &mut Vec<String>) -> Res<Verified> {
    let mut conn = Conn::connect(addr).map_err(|e| format!("verify connect: {e}"))?;
    let n = setup.base.n();
    let (mut rmse, mut miss) = (Vec::new(), Vec::new());
    let mut out = Verified {
        digests: Vec::new(),
        all: FNV_OFFSET,
        mec_rmse_pct: 0.0,
        met_miss_frac: 0.0,
        attempted: 0,
        failed: 0,
    };
    // One monolithic session answers every pool statement up front.
    let mono = if fleet {
        let texts: Vec<String> = CLASSES
            .iter()
            .flat_map(|&c| setup.pool(c).stmts.iter().map(|s| s.text()))
            .collect();
        Some(sut::answers(&setup.base, &texts)?)
    } else {
        None
    };
    let mut mono_bodies = mono.iter().flatten();
    for &class in &CLASSES {
        let pool = setup.pool(class);
        let mut digests = Vec::with_capacity(pool.lines.len());
        for (i, line) in pool.lines.iter().enumerate() {
            let mut body = Vec::new();
            let reply = conn
                .request(line, Some(&mut body))
                .map_err(|e| format!("verify: {e}"))?;
            let body = String::from_utf8_lossy(&body);
            out.attempted += 1;
            let scored = (reply.status == Status::Ok)
                .then(|| score(&body, &pool.expected[i], n))
                .flatten();
            match scored {
                Some(Score::Rmse(r)) => rmse.push(r),
                Some(Score::Miss(m)) => miss.push(m),
                None => {
                    out.failed += 1;
                    notes.push(format!("unanswered or malformed: {}", pool.stmts[i].text()));
                }
            }
            if mono_bodies.next().is_some_and(|m| *m != body) {
                out.failed += 1;
                notes.push(format!(
                    "fleet answer differs from the monolith: {}",
                    pool.stmts[i].text()
                ));
            }
            out.all = fnv1a_from(out.all, &reply.digest.to_le_bytes());
            digests.push(reply.digest);
        }
        out.digests.push(digests);
    }
    out.mec_rmse_pct = rmse.iter().sum::<f64>() / rmse.len().max(1) as f64;
    out.met_miss_frac = miss.iter().sum::<f64>() / miss.len().max(1) as f64;
    Ok(out)
}

/// Keep every hardware thread busy for `d`. The sandbox host gives this
/// VM's second vCPU a core of its own only after about 1.2 s of demand
/// on both (two spinning threads run at half speed each until then, and
/// again after some seconds of idling), so without this the first
/// parallel phase of a run is timed in another regime than the rest.
fn warm_cpus(d: Duration) {
    let until = Instant::now() + d;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut x = 0u64;
                while Instant::now() < until {
                    for i in 0..10_000u64 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6364136223846793005).wrapping_add(i),
                        );
                    }
                }
            });
        }
    });
}

fn p50(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Run `spec` (already sized for the requested seconds) once.
pub fn run(spec: &Spec, seed: u64, trace: bool, out_dir: &Path) -> Res<Outcome> {
    let origin = Instant::now();
    let mut tr = Tracer::new(trace, origin);
    let mut notes = Vec::new();
    let scratch: PathBuf = out_dir.join(format!("tmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let phase = |notes: &mut Vec<String>, name: &str, since: Instant| {
        notes.push(format!(
            "phase {name} {:.3} s",
            since.elapsed().as_secs_f64()
        ));
    };

    warm_cpus(Duration::from_millis(1500));

    // --- setup ---------------------------------------------------------
    let t_phase = Instant::now();
    let mut setup_s = Vec::new();
    let mut setup = None;
    for rep in 0..SETUP_REPS {
        tr.set_run(rep);
        let t = Instant::now();
        setup = Some(tr.span("bench.setup", || gen::setup(spec, seed)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("SETUP_REPS > 0");
    let [d_data, d_ticks, d_stmts, d_sched] = setup.digest();
    phase(&mut notes, "setup", t_phase);

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let violation = |notes: &mut Vec<String>, failed: &mut u64, what: String| {
        *failed += 1;
        notes.push(format!("VIOLATION {what}"));
    };

    // --- build ---------------------------------------------------------
    let t_phase = Instant::now();
    let first = setup.pool(Class::Point).stmts[0].text();
    let mut build_s = Vec::new();
    let mut counts = Vec::new();
    let mut first_bodies = Vec::new();
    for rep in 0..spec.builds {
        tr.set_run(rep as u32);
        let open = tr.open("build");
        let t = Instant::now();
        let (c, body) = sut::build_and_answer(&setup.base, 0, &first, &mut tr)?;
        build_s.push(t.elapsed().as_secs_f64());
        tr.close(open);
        counts.push(c);
        first_bodies.push(body);
    }
    attempted += spec.builds as u64;
    if counts.windows(2).any(|w| w[0] != w[1]) || first_bodies.windows(2).any(|w| w[0] != w[1]) {
        violation(
            &mut notes,
            &mut failed,
            "repeated builds of one input disagree".into(),
        );
    }
    notes.push(format!("samples build_s {build_s:.3?}"));
    phase(&mut notes, "build", t_phase);

    // --- persist -------------------------------------------------------
    let t_phase = Instant::now();
    let mut engine = Engine::boot(&setup.base, spec.refresh_every)?;
    let mut commit_s = Vec::new();
    let mut restart_s = Vec::new();
    let snap_dir = |rep: usize| scratch.join(format!("snap-{rep}"));
    for rep in 0..spec.builds {
        tr.set_run(rep as u32);
        let t = Instant::now();
        engine.persist_to(&snap_dir(rep), &mut tr)?;
        commit_s.push(t.elapsed().as_secs_f64());
    }
    drop(engine);
    let snapshot_bytes = sut::snapshot_bytes(&snap_dir(0))?;
    for rep in 0..spec.builds {
        tr.set_run(rep as u32);
        let open = tr.open("restart");
        let t = Instant::now();
        let body = sut::open_and_answer(&snap_dir(rep), &first, &mut tr)?;
        restart_s.push(t.elapsed().as_secs_f64());
        tr.close(open);
        attempted += 1;
        if body != first_bodies[0] {
            violation(
                &mut notes,
                &mut failed,
                "answer after restart differs from the built model's".into(),
            );
        }
    }
    let resume_s = if trace {
        sut::resume_seconds(&snap_dir(0), spec.m, spec.refresh_every)?
    } else {
        0.0
    };
    notes.push(format!("samples snapshot_commit_s {commit_s:.3?}"));
    phase(&mut notes, "persist", t_phase);

    // --- serve ---------------------------------------------------------
    let t_phase = Instant::now();
    let served = match spec.topology {
        Topology::Mono => {
            let mut engine = Engine::boot(&setup.base, spec.refresh_every)?;
            if spec.persist_armed {
                engine.persist_to(&scratch.join("serve"), &mut Tracer::off())?;
            }
            Served::Mono(Mono::start(engine, &setup.replay, WORKERS)?)
        }
        Topology::Dist { k } => Served::Fleet(Fleet::start(
            &setup.base,
            &setup.replay,
            spec.refresh_every,
            k,
            WORKERS,
        )?),
    };
    let addr = served.addr().to_string();
    let verified = verify(
        &addr,
        &setup,
        matches!(served, Served::Fleet(_)),
        &mut notes,
    )?;
    attempted += verified.attempted;
    failed += verified.failed;
    phase(&mut notes, "serve-start+verify", t_phase);

    warm_cpus(Duration::from_millis(500));
    let t_phase = Instant::now();
    let target = served.refresh_target();
    let batches = spec.refresh_batches;
    // The latency pass: one closed-loop client, so each class's median is
    // the latency of one request in flight. The load pass (traced runs):
    // the workload's clients, as many as the box has hardware threads,
    // the same statement counts, no spans.
    let run_pass = |tr: &mut Tracer, load: bool, check_bodies: bool| -> Res<Vec<StreamResult>> {
        CLASSES
            .iter()
            .enumerate()
            .map(|(c, &class)| {
                let pool = setup.pool(class);
                let (schedules, span) = if load {
                    (pool.load.as_slice(), "serve.load")
                } else {
                    (std::slice::from_ref(&pool.latency), class.span())
                };
                let verified = check_bodies.then(|| verified.digests[c].as_slice());
                run_stream(&addr, pool, schedules, verified, span, tr)
                    .map_err(|e| format!("{} stream: {e}", class.name()))
            })
            .collect()
    };
    // The load pass runs before any tick, on the verified epoch; a
    // workload with an open-loop ticker has one client and no such pass.
    let mut loaded: Vec<StreamResult> = Vec::new();
    let (streams, refresh): (Vec<StreamResult>, RefreshResult) = match spec.ticker {
        Ticker::Quiescent => {
            let streams = run_pass(&mut tr, false, true)?;
            phase(&mut notes, "streams", t_phase);
            let t_phase = Instant::now();
            if trace && spec.clients > 1 {
                loaded = run_pass(&mut Tracer::off(), true, true)?;
                phase(&mut notes, "load", t_phase);
            }
            let t_phase = Instant::now();
            let refresh = run_refresh(&target, batches, spec.refresh_every, None)
                .map_err(|e| format!("refresh: {e}"))?;
            phase(&mut notes, "refresh", t_phase);
            (streams, refresh)
        }
        // Epochs turn over under the streams, so a body may legitimately
        // differ from the verified one; only its status is checked.
        Ticker::OpenLoop { period_ms } => std::thread::scope(|scope| {
            let period = Some(Duration::from_millis(period_ms));
            let target = &target;
            let ticker =
                scope.spawn(move || run_refresh(target, batches, spec.refresh_every, period));
            let streams = run_pass(&mut tr, false, false);
            let refresh = ticker.join().map_err(|_| "ticker panicked".to_string())?;
            phase(&mut notes, "streams+refresh", t_phase);
            Ok::<_, String>((streams?, refresh.map_err(|e| format!("ticker: {e}"))?))
        })?,
    };
    for (s, class) in streams.iter().zip(CLASSES) {
        let l = sorted(s.latency_us.clone());
        notes.push(format!(
            "stream {} {} statements in {:.3} s; us p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} p99 {:.1}",
            class.name(),
            l.len(),
            s.wall_s,
            percentile(&l, 0.10),
            percentile(&l, 0.25),
            percentile(&l, 0.50),
            percentile(&l, 0.75),
            percentile(&l, 0.90),
            percentile(&l, 0.99)
        ));
    }
    for s in streams.iter().chain(&loaded) {
        attempted += s.latency_us.len() as u64;
        failed += s.failed;
    }
    let statements: usize = streams.iter().map(|s| s.latency_us.len()).sum();
    let stream_wall: f64 = streams.iter().map(|s| s.wall_s).sum();
    let load_qps = if loaded.is_empty() {
        0.0
    } else {
        loaded.iter().map(|s| s.latency_us.len()).sum::<usize>() as f64
            / loaded.iter().map(|s| s.wall_s).sum::<f64>()
    };
    attempted += batches as u64;
    failed += refresh.failed;
    if refresh.failed > 0 {
        notes.push(format!(
            "VIOLATION {} tick batches did not advance every epoch by exactly one",
            refresh.failed
        ));
    }

    // Ledger identities at quiescence, over the wire as a client sees them.
    let mut serve_stats = String::new();
    match &served {
        Served::Mono(m) => {
            serve_stats = stats_line(&m.addr)?;
            if let Some(v) = serve_ledger_violation(&serve_stats) {
                violation(&mut notes, &mut failed, v);
            }
        }
        Served::Fleet(f) => {
            if let Some(v) = coord_ledger_violation(&stats_line(&f.addr)?) {
                violation(&mut notes, &mut failed, v);
            }
            for shard in f.shard_addrs() {
                if let Some(v) = serve_ledger_violation(&stats_line(&shard)?) {
                    violation(&mut notes, &mut failed, v);
                }
            }
        }
    }

    // The shard hop without the client hop, while the fleet is still up.
    let mut fleet_numbers = Vec::new();
    if trace {
        if let Served::Fleet(f) = &served {
            let direct = f.direct_coordinator()?;
            let texts: Vec<String> = setup
                .pool(Class::Point)
                .stmts
                .iter()
                .map(|s| s.text())
                .collect();
            let remote_us = layers::p50_us(&texts, 2, |t| direct.execute(t).map(drop))?;
            let ledger = direct.ledger();
            fleet_numbers = vec![
                ("coord.remote_point_us", remote_us),
                ("coord.retried", kv_u64(&ledger, "retried") as f64),
                ("coord.degraded", kv_u64(&ledger, "degraded") as f64),
            ];
        }
    }
    match served {
        Served::Mono(m) => drop(m.stop()?),
        Served::Fleet(f) => drop(f.stop()?),
    }

    // --- metrics -------------------------------------------------------
    let [point, mec, scan] = &streams[..] else {
        return Err("three streams expected".into());
    };
    let point_sorted = sorted(point.latency_us.clone());
    let fail_frac = failed as f64 / attempted as f64;
    let correct = failed == 0
        && verified.mec_rmse_pct <= MAX_MEC_RMSE_PCT
        && verified.met_miss_frac <= MAX_MET_MISS_FRAC;
    notes.push(format!(
        "check mec_rmse_pct {:.6} % met_miss_frac {:.6} fail_frac {fail_frac:.6} ticker_late_p50_ms {:.3}",
        verified.mec_rmse_pct,
        verified.met_miss_frac,
        median(&refresh.late_ms)
    ));
    let point_p50 = percentile(&point_sorted, 0.5);
    let (scan_p50, mec_p50) = (p50(&scan.latency_us), p50(&mec.latency_us));
    let refresh_p50 = p50(&refresh.latency_ms);
    let e2e: Vec<(&'static str, f64)> = vec![
        ("setup_s", median(&setup_s)),
        ("build_s", median(&build_s)),
        ("restart_s", median(&restart_s)),
        (
            "model_bytes_per_pair",
            snapshot_bytes as f64 / setup.base.pairs() as f64,
        ),
        ("point_p50_us", point_p50),
        ("scan_p50_us", scan_p50),
        ("mec_p50_us", mec_p50),
        ("query_qps", statements as f64 / stream_wall),
        ("refresh_p50_ms", refresh_p50),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let value = |table: &[(&'static str, f64)], name: &str| {
        table.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    };

    let metrics = if !trace {
        END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: value(&e2e, m.name).expect("every end-to-end metric is measured"),
                unit: m.unit,
            })
            .collect()
    } else {
        let t_phase = Instant::now();
        let c = &counts[0];
        let build = median(&tr.durations("build"));
        let explore = median(&tr.durations("core.symex_explore"));
        let assign = median(
            &(0..3)
                .map(|_| sut::symex_assign_seconds(&setup.base, 0))
                .collect::<Res<Vec<f64>>>()?,
        );
        let one_thread = {
            let t = Instant::now();
            sut::build_and_answer(&setup.base, 1, &first, &mut Tracer::off())?;
            t.elapsed().as_secs_f64()
        };
        let mut layer: Vec<(&'static str, f64)> = vec![
            ("core.afclst_s", median(&tr.durations("core.afclst"))),
            ("core.afclst_iters", c.afclst_iters as f64),
            ("core.symex_assign_s", assign),
            ("core.symex_fit_s", (explore - assign).max(0.0)),
            ("core.symex_pairs", c.symex_pairs as f64),
            ("core.symex_pinv_computed", c.pinv_computed as f64),
            ("core.symex_pinv_cache_hits", c.pinv_cache_hits as f64),
            ("core.mec_prep_s", median(&tr.durations("ql.session_open"))),
            ("scape.build_s", median(&tr.durations("scape.build"))),
            ("scape.sequence_nodes", c.sequence_nodes as f64),
            (
                "index.bulk_build_s",
                sut::index_bulk_build_seconds(c.sequence_nodes, c.pivot_nodes),
            ),
            ("par.build_speedup_2t", one_thread / build),
            (
                "build.unattributed_frac",
                median(&tr.self_times("build")) / build,
            ),
            (
                "storage.snapshot_commit_s",
                median(&tr.durations("storage.snapshot_commit")),
            ),
            (
                "storage.snapshot_open_s",
                median(&tr.durations("storage.snapshot_open")),
            ),
            ("storage.snapshot_bytes", snapshot_bytes as f64),
            ("stream.resume_s", resume_s),
            (
                "serve.resp_bytes_per_stmt",
                scan.bytes as f64 / scan.latency_us.len() as f64,
            ),
            ("serve.scan_mb_s", scan.bytes as f64 / 1e6 / scan.wall_s),
            (
                "serve.queue_high_water",
                kv_u64(&serve_stats, "high_water") as f64,
            ),
            ("serve.rejected", kv_u64(&serve_stats, "rejected") as f64),
            ("serve.shed", kv_u64(&serve_stats, "shed") as f64),
            ("serve.deadline", kv_u64(&serve_stats, "deadline") as f64),
            ("bench.ticker_late_ms", median(&refresh.late_ms)),
            (
                "trace.overhead_frac",
                p50(&point.spanned_us) / p50(&point.unspanned_us) - 1.0,
            ),
            ("trace.build_s", build),
            ("trace.point_p50_us", point_p50),
            ("trace.scan_p50_us", scan_p50),
            ("trace.mec_p50_us", mec_p50),
            ("trace.refresh_p50_ms", refresh_p50),
            ("serve.point_p99_us", percentile(&point_sorted, 0.99)),
            ("serve.load_qps", load_qps),
            ("check.mec_rmse_pct", verified.mec_rmse_pct),
            ("check.met_miss_frac", verified.met_miss_frac),
            ("check.fail_frac", fail_frac),
        ];
        layer.extend(layers::query_layers(&setup)?);
        layer.extend(layers::stream_layers(
            &setup,
            spec,
            &scratch.join("stream-layers"),
            &mut tr,
        )?);
        layer.extend(fleet_numbers);
        let get = |layer: &[(&'static str, f64)], n: &str| value(layer, n).unwrap_or(0.0);
        let hop = point_p50 - get(&layer, "ql.execute_point_us");
        let publish = refresh_p50 - get(&layer, "engine.refresh_p50_ms");
        // Zero where the workload has no fleet to measure.
        let coord_hop = match spec.topology {
            Topology::Dist { .. } => {
                get(&layer, "coord.remote_point_us") - get(&layer, "coord.inproc_point_us")
            }
            Topology::Mono => 0.0,
        };
        layer.push(("serve.hop_point_us", hop));
        layer.push(("serve.epoch_publish_ms", publish));
        layer.push(("coord.hop_us", coord_hop));
        layer.push(("trace.spans", tr.len() as f64));
        phase(&mut notes, "layers", t_phase);
        let path = out_dir.join(format!("trace-{}.json", spec.name));
        std::fs::write(&path, tr.to_json(spec.name, seed))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!("trace {} spans -> {}", tr.len(), path.display()));
        PER_LAYER
            .iter()
            .map(|m| Metric {
                name: m.name,
                value: get(&layer, m.name),
                unit: m.unit,
            })
            .collect()
    };
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics,
        digests: [d_data, d_ticks, d_stmts, d_sched, verified.all],
        notes,
    })
}
