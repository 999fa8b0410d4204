//! Chaos suite for `affinity coord`: the real binary, real TCP, real
//! `kill -9`. Every scenario asserts the distributed contract —
//! answers are bit-identical to a monolithic server while the fleet is
//! healthy, degradation is *typed* (`DEGRADED` / `UNAVAILABLE`, never
//! a silent subset) while a shard is actually down, the supervisor
//! re-heals a killed shard back to tick-parity without a coordinator
//! restart, and the conservation ledger balances at every quiescent
//! point.
//!
//! The scenarios:
//! - monolithic mirror: a coordinator over K ∈ {2, 4} real shard
//!   servers answers the statement battery byte-identically to a
//!   single `affinity serve` over the same deterministic model;
//! - `kill -9` a shard mid-run: immediate queries come back typed
//!   (`DEGRADED` with the dead shard listed, `UNAVAILABLE` for
//!   cross-shard MEC), the supervisor respawns with `--resume`, and
//!   post-heal answers are byte-identical to pre-kill;
//! - snapshot corruption under the respawn: `--resume` cannot come up,
//!   the supervisor wipes and respawns fresh, deterministic replay
//!   re-ticks to parity, and answers are still byte-identical;
//! - strict mode + a stalled (not dead) shard: deadlines and the
//!   circuit breaker turn the stall into typed `UNAVAILABLE`, the
//!   breaker re-closes after the stall clears, and an oversized
//!   request line gets a typed `PROTO` rejection without killing the
//!   connection.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_affinity");

/// Model shape shared by every scenario; generation is deterministic,
/// so any two processes started from these flags hold the same model.
const SERIES: &str = "12";
const SAMPLES: &str = "96";
const WINDOW: &str = "32";

/// A running `affinity coord` child: its listen address, the pid and
/// address of each shard server it spawned, and a live log of every
/// `COORD <event>` line the supervisor prints.
struct CoordProc {
    child: Child,
    addr: String,
    shard_pids: Vec<u32>,
    shard_addrs: Vec<String>,
    events: Arc<Mutex<Vec<String>>>,
}

impl CoordProc {
    /// Spawn `affinity coord --port 0 <extra>` and parse the startup
    /// block: one `COORD shard=<i> pid=<p> addr=<a>` line per shard,
    /// then `COORD addr=<a> ...`. Later stdout lines (supervisor
    /// events, the final ledger) keep draining into `events`.
    fn spawn(shards: usize, extra: &[&str]) -> CoordProc {
        let mut child = Command::new(BIN)
            .arg("coord")
            .args(["--shards", &shards.to_string()])
            .args(["--series", SERIES, "--samples", SAMPLES, "--window", WINDOW])
            .args(["--workers", "2", "--port", "0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn affinity coord");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let mut shard_pids = Vec::new();
        let mut shard_addrs = Vec::new();
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("read startup line");
            assert!(n > 0, "coord exited before printing its COORD addr line");
            let trimmed = line.trim();
            if let Some(rest) = trimmed.strip_prefix("COORD shard=") {
                let fields: HashMap<&str, &str> = rest
                    .split_whitespace()
                    .filter_map(|kv| kv.split_once('='))
                    .collect();
                shard_pids.push(fields["pid"].parse().expect("shard pid"));
                // The shard index itself is implicit in arrival order.
                shard_addrs.push(fields["addr"].to_string());
            } else if let Some(rest) = trimmed.strip_prefix("COORD addr=") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("addr field")
                    .to_string();
            }
        };
        assert_eq!(shard_pids.len(), shards, "one pid line per shard");
        let events = Arc::new(Mutex::new(Vec::new()));
        {
            let events = Arc::clone(&events);
            std::thread::spawn(move || {
                let mut line = String::new();
                loop {
                    line.clear();
                    match stdout.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            if let Some(rest) = line.trim().strip_prefix("COORD ") {
                                events.lock().unwrap().push(rest.to_string());
                            }
                        }
                    }
                }
            });
        }
        CoordProc {
            child,
            addr,
            shard_pids,
            shard_addrs,
            events,
        }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr)
    }

    /// `kill -9` one shard server child (not the coordinator).
    fn kill9_shard(&self, shard: usize) {
        let status = Command::new("kill")
            .args(["-9", &self.shard_pids[shard].to_string()])
            .status()
            .expect("send SIGKILL to shard");
        assert!(status.success(), "kill -9 shard {shard} failed");
    }

    /// Wait until an event line containing `needle` has been printed.
    fn wait_for_event(&self, needle: &str, timeout: Duration) {
        let deadline = Instant::now() + timeout;
        loop {
            if self
                .events
                .lock()
                .unwrap()
                .iter()
                .any(|e| e.contains(needle))
            {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "no '{needle}' event within {timeout:?}; saw {:?}",
                self.events.lock().unwrap()
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    /// Poll `.health` until every shard reports `closed` with no
    /// `:resync` tag — the supervisor's proof that the fleet is whole.
    fn wait_healthy(&self, timeout: Duration) {
        let mut admin = self.connect();
        let deadline = Instant::now() + timeout;
        loop {
            let health = admin.control(".health");
            let whole = health
                .split_whitespace()
                .filter(|f| f.starts_with('s'))
                .all(|f| f.ends_with("=closed"));
            if whole {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "fleet never healed within {timeout:?}: {health}"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    /// Graceful shutdown; returns the final `COORD done` ledger.
    fn shutdown(mut self) -> HashMap<String, u64> {
        let mut admin = self.connect();
        admin.control(".shutdown");
        let status = self.child.wait().expect("wait for coord");
        assert!(status.success(), "coord exited non-zero");
        // The event drain thread sees EOF once the child exits.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Some(done) = self
                .events
                .lock()
                .unwrap()
                .iter()
                .find_map(|e| e.strip_prefix("done ").map(parse_ledger))
            {
                return done;
            }
            assert!(Instant::now() < deadline, "no COORD done ledger printed");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// One TCP client speaking the line protocol (coordinator or shard
/// server — both use `<id> <stmt>` requests and `.cmd` controls).
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Response {
    /// `OK <id>` + body (bit-exact, newline-joined).
    Ok(String, String),
    /// `DEGRADED <id> <missing-shards-csv>` + partial body.
    Degraded(String, Vec<usize>, String),
    /// `ERR <id> <CODE>`.
    Err(String, String),
    /// `+...` / `-...` control reply.
    Control(String),
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone stream"));
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
    }

    fn read_body(&mut self, count: usize) -> String {
        let mut body = String::new();
        for _ in 0..count {
            let mut b = String::new();
            assert!(
                self.reader.read_line(&mut b).expect("read body line") > 0,
                "connection closed mid-body"
            );
            body.push_str(&b);
        }
        body
    }

    fn read_response(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read response");
        assert!(n > 0, "connection closed mid-response");
        let line = line.trim_end().to_string();
        if line.starts_with('+') || line.starts_with('-') {
            return Response::Control(line);
        }
        let toks: Vec<&str> = line.splitn(4, ' ').collect();
        match toks.as_slice() {
            ["OK", id, count] => {
                let count: usize = count.parse().expect("OK body line count");
                Response::Ok(id.to_string(), self.read_body(count))
            }
            ["DEGRADED", id, missing, count] => {
                let count: usize = count.parse().expect("DEGRADED body line count");
                let missing = missing
                    .split(',')
                    .map(|s| s.parse().expect("missing shard index"))
                    .collect();
                Response::Degraded(id.to_string(), missing, self.read_body(count))
            }
            ["ERR", id, rest] | ["ERR", id, rest, _] => {
                let code = rest.split(' ').next().unwrap_or("").to_string();
                Response::Err(id.to_string(), code)
            }
            other => panic!("malformed response line {line:?} ({other:?})"),
        }
    }

    fn query(&mut self, id: &str, stmt: &str) -> Response {
        self.send(&format!("{id} {stmt}"));
        self.read_response()
    }

    fn control(&mut self, cmd: &str) -> String {
        self.send(cmd);
        match self.read_response() {
            Response::Control(s) => {
                assert!(s.starts_with('+'), "control {cmd:?} failed: {s}");
                s
            }
            other => panic!("control {cmd:?} got non-control response {other:?}"),
        }
    }
}

fn parse_ledger(s: &str) -> HashMap<String, u64> {
    s.split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        .collect()
}

/// The two conservation identities every quiescent coordinator ledger
/// must satisfy: the attempt split covers every routed attempt, and
/// the statement split covers every executed statement.
fn assert_coord_ledger_balances(ledger: &HashMap<String, u64>) {
    let g = |k: &str| {
        ledger
            .get(k)
            .copied()
            .unwrap_or_else(|| panic!("ledger missing {k}: {ledger:?}"))
    };
    assert_eq!(
        g("routed"),
        g("merged") + g("retried") + g("degraded") + g("failed"),
        "attempt conservation violated: {ledger:?}"
    );
    assert_eq!(
        g("stmts"),
        g("ok") + g("degraded_answers") + g("unavailable") + g("errors"),
        "statement conservation violated: {ledger:?}"
    );
}

fn coord_stats(admin: &mut Client) -> HashMap<String, u64> {
    let stats = admin.control(".stats");
    parse_ledger(stats.strip_prefix("+stats ").expect("stats prefix"))
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "affinity-coord-chaos-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Statements whose rendered output is transport- and
/// topology-independent (EXPLAIN plans mention the shard layout, so
/// they only appear in the same-topology batteries below).
const MIRROR_SET: &[&str] = &[
    "MET correlation > 0.5",
    "MET mean < 0.2",
    "MET cosine > 0.8",
    "MER covariance BETWEEN -0.25 AND 0.75",
    "MER median BETWEEN -1.0 AND 1.0",
    "MEC correlation OF S0, S5, S11",
    "MEC mean OF S3",
    "MET correlation > 2.0",
    "MER mean BETWEEN -1e9 AND 1e9",
    "MEC mean OF S99",
    "NOT A STATEMENT",
];

/// The fuller battery for same-process pre/post comparisons, where
/// EXPLAIN output (which names the shard topology) must also be
/// stable across a failover.
fn battery() -> Vec<String> {
    let mut stmts: Vec<String> = MIRROR_SET.iter().map(|s| s.to_string()).collect();
    for m in ["correlation", "covariance", "mean", "dice"] {
        stmts.push(format!("EXPLAIN MET {m} > 0.5"));
    }
    stmts.push("EXPLAIN MEC mean OF S0, S5, S11".into());
    stmts
}

fn run_battery(client: &mut Client, tag: &str, stmts: &[String]) -> Vec<Response> {
    stmts
        .iter()
        .enumerate()
        .map(|(i, s)| client.query(&format!("{tag}{i}"), s))
        .collect()
}

/// A coordinator over K real shard servers answers byte-identically
/// to one monolithic `affinity serve` over the same model, for
/// K ∈ {2, 4}, healthy and after identical deterministic ticks.
#[test]
fn coordinator_matches_monolithic_server_over_sockets() {
    // Monolithic mirror.
    let mut mono = Command::new(BIN)
        .arg("serve")
        .args(["--series", SERIES, "--samples", SAMPLES, "--window", WINDOW])
        .args(["--workers", "2", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn affinity serve");
    let mono_addr = {
        let mut stdout = BufReader::new(mono.stdout.take().expect("stdout"));
        let mut line = String::new();
        loop {
            line.clear();
            assert!(stdout.read_line(&mut line).expect("read") > 0, "serve died");
            if let Some(rest) = line.trim().strip_prefix("SERVE addr=") {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        }
    };
    let mut mono_client = Client::connect(&mono_addr);
    mono_client.control(".tick 20");
    let expected: Vec<Response> = MIRROR_SET
        .iter()
        .enumerate()
        .map(|(i, s)| mono_client.query(&format!("q{i}"), s))
        .collect();

    for shards in [2usize, 4] {
        let coord = CoordProc::spawn(shards, &[]);
        let mut client = coord.connect();
        client.control(".tick 20");
        for (i, stmt) in MIRROR_SET.iter().enumerate() {
            let got = client.query(&format!("q{i}"), stmt);
            assert_eq!(
                got, expected[i],
                "K={shards} diverged from monolithic on {stmt:?}"
            );
        }
        let mut admin = coord.connect();
        assert_coord_ledger_balances(&coord_stats(&mut admin));
        // Respawn holds are fault injection: refused without `--chaos`.
        admin.send(".respawn hold");
        assert_eq!(
            admin.read_response(),
            Response::Control("-err fault injection disabled".into())
        );
        drop(admin);
        drop(client);
        let done = coord.shutdown();
        assert_coord_ledger_balances(&done);
    }

    let _ = mono.kill();
    let _ = mono.wait();
}

/// `kill -9` one shard: queries degrade *typed* while it is down
/// (missing shard listed on partial answers, `UNAVAILABLE` for a
/// cross-shard matrix), the supervisor respawns it with `--resume`,
/// and once `.health` reports the fleet whole the full battery —
/// EXPLAIN plans included — is byte-identical to pre-kill, without a
/// coordinator restart.
#[test]
fn kill9_failover_heals_to_bit_identical_answers() {
    let dir = temp_dir("kill9");
    let coord = CoordProc::spawn(2, &["--chaos", "--persist-root", dir.to_str().unwrap()]);
    let mut client = coord.connect();
    client.control(".tick 20");

    let stmts = battery();
    let before = run_battery(&mut client, "pre", &stmts);
    for r in &before {
        assert!(
            matches!(r, Response::Ok(..) | Response::Err(..)),
            "healthy fleet answered degraded: {r:?}"
        );
    }

    // Keep the dead shard down while the two probes run: a respawn and
    // heal inside the client's retry budget would answer them in full.
    client.control(".respawn hold");
    coord.kill9_shard(0);

    // Cross-shard matrix with a hole is wrong, not partial: typed
    // UNAVAILABLE. S0 lives on shard 0, S11 on shard 1.
    match client.query("mec-down", "MEC correlation OF S0, S11") {
        Response::Err(_, code) => assert_eq!(code, "UNAVAILABLE"),
        other => panic!("cross-shard MEC with a dead shard answered {other:?}"),
    }
    // Pair queries degrade and say exactly which shard is missing.
    match client.query("met-down", "MET correlation > 0.5") {
        Response::Degraded(_, missing, _) => {
            assert_eq!(missing, vec![0], "missing shards must name the dead one");
        }
        // The only acceptable alternative is a full answer after an
        // improbably fast heal — which must then be bit-identical.
        Response::Ok(_, body) => match &before[0] {
            Response::Ok(_, expected) => assert_eq!(&body, expected, "silent partial answer"),
            other => panic!("battery[0] changed shape: {other:?}"),
        },
        other => panic!("query against dead shard answered {other:?}"),
    }
    client.control(".respawn release");

    coord.wait_for_event("respawn shard=0", Duration::from_secs(120));
    coord.wait_for_event("heal shard=0", Duration::from_secs(120));
    coord.wait_healthy(Duration::from_secs(120));

    let after = run_battery(&mut client, "pre", &stmts);
    assert_eq!(before, after, "healed fleet diverged from pre-kill answers");

    let mut admin = coord.connect();
    assert_coord_ledger_balances(&coord_stats(&mut admin));
    drop(admin);
    drop(client);
    let done = coord.shutdown();
    assert_coord_ledger_balances(&done);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt the killed shard's snapshot directory so `--resume` cannot
/// come up: the supervisor must wipe, respawn fresh, re-tick the
/// deterministic replay to parity, and the healed fleet must still
/// answer byte-identically — corruption costs time, never answers.
#[test]
fn snapshot_corruption_forces_wipe_and_fresh_reheal() {
    let dir = temp_dir("corrupt");
    let coord = CoordProc::spawn(2, &["--persist-root", dir.to_str().unwrap()]);
    let mut client = coord.connect();
    client.control(".tick 10");

    let stmts = battery();
    let before = run_battery(&mut client, "pre", &stmts);

    coord.kill9_shard(1);
    // Trash every file the dead shard persisted before the supervisor
    // notices (it needs 3 failed pings at 200ms cadence).
    let shard_dir = dir.join("shard1");
    let mut corrupted = 0usize;
    if let Ok(entries) = std::fs::read_dir(&shard_dir) {
        for entry in entries.flatten() {
            if entry.file_type().map(|t| t.is_file()).unwrap_or(false) {
                std::fs::write(entry.path(), b"\xDE\xAD\xBE\xEFgarbage").expect("corrupt file");
                corrupted += 1;
            }
        }
    }
    assert!(
        corrupted > 0,
        "no snapshot files found to corrupt in {shard_dir:?}"
    );

    coord.wait_for_event("wipe shard=1", Duration::from_secs(120));
    coord.wait_for_event("heal shard=1", Duration::from_secs(180));
    coord.wait_healthy(Duration::from_secs(120));

    let after = run_battery(&mut client, "pre", &stmts);
    assert_eq!(
        before, after,
        "fresh-respawned shard diverged from pre-corruption answers"
    );

    drop(client);
    let done = coord.shutdown();
    assert_coord_ledger_balances(&done);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stalled-but-alive shard (fault-injected slow workers) exhausts
/// the per-shard deadline and retry budget; in `--strict` mode that
/// must surface as typed `UNAVAILABLE`, and the circuit breaker must
/// re-close once the stall clears. Also: an oversized request line is
/// rejected with a typed `PROTO` error and the connection survives.
#[test]
fn strict_stall_yields_typed_unavailable_then_recovers() {
    let coord = CoordProc::spawn(
        2,
        &[
            "--strict",
            "--chaos",
            "--timeout-ms",
            "400",
            "--retries",
            "2",
        ],
    );
    let mut client = coord.connect();

    let healthy = client.query("h0", "MET correlation > 0.5");
    assert!(matches!(healthy, Response::Ok(..)), "baseline: {healthy:?}");

    // Stall shard 0's workers well past the coordinator's deadline.
    // Controls are answered inline, so the supervisor's pings still
    // succeed: this is a stall, not a death — breaker territory.
    let mut shard0 = Client::connect(&coord.shard_addrs[0]);
    shard0.control(".fault slow-worker 3000");

    match client.query("s0", "MET correlation > 0.5") {
        Response::Err(_, code) => assert_eq!(code, "UNAVAILABLE"),
        other => panic!("strict coordinator with a stalled shard answered {other:?}"),
    }

    shard0.control(".fault slow-worker 0");

    // The breaker re-probes after its cooldown; poll until the answer
    // is whole again and identical to the healthy baseline.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match client.query("r0", "MET correlation > 0.5") {
            Response::Ok(_, body) => {
                match &healthy {
                    Response::Ok(_, expected) => assert_eq!(&body, expected),
                    _ => unreachable!(),
                }
                break;
            }
            Response::Err(_, code) => assert_eq!(code, "UNAVAILABLE", "untyped during recovery"),
            other => panic!("strict mode leaked a partial answer: {other:?}"),
        }
        assert!(
            Instant::now() < deadline,
            "breaker never re-closed after the stall cleared"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Oversized line: typed PROTO rejection, connection still usable.
    let huge = format!("big {}", "x".repeat(80 * 1024));
    client.send(&huge);
    match client.read_response() {
        Response::Err(_, code) => assert_eq!(code, "PROTO"),
        other => panic!("oversized line answered {other:?}"),
    }
    let again = client.query("after-proto", "MET correlation > 0.5");
    assert!(
        matches!(again, Response::Ok(..)),
        "connection unusable after PROTO rejection: {again:?}"
    );

    let mut admin = coord.connect();
    assert_coord_ledger_balances(&coord_stats(&mut admin));
    drop(admin);
    drop(client);
    let done = coord.shutdown();
    assert_coord_ledger_balances(&done);
}
