//! Shard-server child management: spawn, death detection, respawn with
//! `--resume`, and the re-heal protocol that readmits a shard.
//!
//! The dangerous moment in failover is *readmission*: a respawned
//! shard that resumed an old snapshot holds a model from an earlier
//! tick, and letting it answer queries would silently merge stale
//! values into otherwise-correct answers. The supervisor therefore
//! gates readmission on proof, not liveness:
//!
//! 1. the shard answers `.ping`;
//! 2. its identity checks out — a one-shot `!meta` statement must
//!    agree with the fleet's series count and ownership plan;
//! 3. its tick count is caught up to the coordinator's target (behind
//!    → `.tick <delta>` replays the deterministic stream; *ahead* →
//!    the state is from a different run, wipe and respawn fresh);
//! 4. tick-parity is re-verified under the coordinator's tick write
//!    lock, so no `.tick` fan-out can race the readmission.
//!
//! Only then does [`crate::remote::RemoteShard::clear_resync`] run.
//! Until it does, the shard fast-fails every query and statements come
//! back `DEGRADED` — degraded is honest; stale would be a lie.

use crate::proto::{decode_response, ShardRequest, ShardResponse};
use crate::remote::RemoteShard;
use crate::server::CoordServer;
use parking_lot::{Mutex, RwLock};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How long a spawned shard server may take to print its
/// `SERVE addr=` startup line (model warm-up included).
const SPAWN_TIMEOUT: Duration = Duration::from_secs(120);
/// Deadline for control probes during health checks.
const PROBE_TIMEOUT: Duration = Duration::from_millis(750);
/// Deadline for catch-up `.tick` calls (they recompute models).
const CATCHUP_TIMEOUT: Duration = Duration::from_secs(60);
/// Monitor cadence.
const MONITOR_EVERY: Duration = Duration::from_millis(200);
/// Consecutive failed pings that quarantine a live-looking child.
const PING_FAILS: u32 = 3;
/// Bound on one heal attempt; the monitor retries next cycle.
const HEAL_WINDOW: Duration = Duration::from_secs(10);

/// Everything needed to (re)spawn one shard server child.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// The `affinity` binary.
    pub exe: PathBuf,
    /// Shard index.
    pub shard: usize,
    /// Fleet size.
    pub shards: usize,
    /// Replay generator kind (`sensor` / `stock`).
    pub gen: String,
    /// Series count of the replay dataset.
    pub series: usize,
    /// Samples of the replay dataset.
    pub samples: usize,
    /// Streaming window size.
    pub window: usize,
    /// Worker lanes per shard server.
    pub workers: usize,
    /// Start children with `--chaos` (fault injection enabled).
    pub chaos: bool,
    /// Snapshot directory: first spawn uses `--persist`, respawns use
    /// `--resume` (falling back to a wipe + fresh `--persist` when the
    /// resume cannot come up). `None` disables persistence — respawns
    /// rebuild from scratch and re-tick to parity.
    pub persist_dir: Option<PathBuf>,
}

impl ShardSpec {
    fn command(&self, resume: bool) -> Command {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("serve")
            .arg("--shard")
            .arg(self.shard.to_string())
            .arg("--shards")
            .arg(self.shards.to_string())
            .arg("--gen")
            .arg(&self.gen)
            .arg("--series")
            .arg(self.series.to_string())
            .arg("--samples")
            .arg(self.samples.to_string())
            .arg("--window")
            .arg(self.window.to_string())
            .arg("--workers")
            .arg(self.workers.to_string())
            .arg("--port")
            .arg("0")
            .arg("--quiet");
        if self.chaos {
            cmd.arg("--chaos");
        }
        if let Some(dir) = &self.persist_dir {
            cmd.arg(if resume { "--resume" } else { "--persist" })
                .arg(dir.as_os_str());
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        cmd
    }
}

/// Spawn one shard server and wait for its `SERVE addr=` startup line.
/// The child's stdout keeps draining on a background thread for its
/// whole life (a full pipe would wedge it).
///
/// # Errors
/// Spawn failures, early child exit, or a startup timeout.
pub fn launch(spec: &ShardSpec, resume: bool) -> std::io::Result<(Child, String)> {
    let mut child = spec.command(resume).spawn()?;
    let Some(stdout) = child.stdout.take() else {
        let _ = child.kill();
        return Err(std::io::Error::other("child stdout not captured"));
    };
    let (tx, rx) = mpsc::channel::<String>();
    std::thread::Builder::new()
        .name(format!("affinity-coord-drain-{}", spec.shard))
        .spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if let Some(rest) = line.trim().strip_prefix("SERVE addr=") {
                            let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                            let _ = tx.send(addr);
                        }
                        // Keep draining; later lines are discarded.
                    }
                }
            }
        })?;
    match rx.recv_timeout(SPAWN_TIMEOUT) {
        Ok(addr) if !addr.is_empty() => Ok((child, addr)),
        _ => {
            let _ = child.kill();
            let _ = child.wait();
            Err(std::io::Error::other(format!(
                "shard {} did not report an address within {SPAWN_TIMEOUT:?}",
                spec.shard
            )))
        }
    }
}

/// Spawn the whole fleet fresh, in shard order.
///
/// # Errors
/// The first failing spawn (already-started children are killed).
pub fn spawn_fleet(specs: &[ShardSpec]) -> std::io::Result<(Vec<Child>, Vec<String>)> {
    let mut children = Vec::with_capacity(specs.len());
    let mut addrs = Vec::with_capacity(specs.len());
    for spec in specs {
        match launch(spec, false) {
            Ok((child, addr)) => {
                children.push(child);
                addrs.push(addr);
            }
            Err(e) => {
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(e);
            }
        }
    }
    Ok((children, addrs))
}

/// The failover loop: watches children, quarantines and respawns dead
/// or unresponsive shards, and runs the re-heal protocol before
/// readmitting them.
pub struct Supervisor {
    remotes: Vec<Arc<RemoteShard>>,
    ticks: Arc<RwLock<u64>>,
    /// One spec per shard for respawning; empty = attach mode (no
    /// child management, health + heal only).
    specs: Vec<ShardSpec>,
    children: Mutex<Vec<Option<Child>>>,
    /// The fleet identity a healed shard must prove before
    /// readmission.
    expected_series: usize,
    expected_assignments: Vec<u32>,
    /// The server's `.respawn hold` flag: while set, dead shards stay
    /// down.
    respawn_hold: Arc<AtomicBool>,
    stop: AtomicBool,
    on_event: Box<dyn Fn(&str) + Send + Sync>,
}

impl Supervisor {
    /// Build a supervisor over `server`'s already-running fleet: its
    /// TCP backends, tick target, fleet identity and `.respawn hold`
    /// flag. `children` must align with `specs` (both empty for attach
    /// mode). Events (respawn, heal, wipe) are reported through
    /// `on_event`.
    pub fn new(
        server: &CoordServer,
        specs: Vec<ShardSpec>,
        children: Vec<Child>,
        on_event: Box<dyn Fn(&str) + Send + Sync>,
    ) -> Arc<Supervisor> {
        let meta = server.coordinator().meta();
        Arc::new(Supervisor {
            remotes: server.remotes().to_vec(),
            ticks: Arc::clone(server.ticks()),
            specs,
            children: Mutex::new(children.into_iter().map(Some).collect()),
            expected_series: meta.series,
            expected_assignments: meta.plan.assignments().to_vec(),
            respawn_hold: Arc::clone(server.respawn_hold()),
            stop: AtomicBool::new(false),
            on_event,
        })
    }

    /// Request the monitor loop to exit.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// The monitor loop; run it on a dedicated thread. Exits on
    /// [`Supervisor::stop`].
    pub fn run(self: &Arc<Self>) {
        let mut ping_fails = vec![0u32; self.remotes.len()];
        while !self.stopping() {
            for shard in 0..self.remotes.len() {
                if self.stopping() {
                    break;
                }
                let Some(remote) = self.remotes.get(shard) else {
                    continue;
                };
                if self.manage_child(shard, remote) {
                    // Child was respawned (or is mid-restart); heal on
                    // a later cycle once it can answer pings.
                    if let Some(f) = ping_fails.get_mut(shard) {
                        *f = 0;
                    }
                }
                if remote.resyncing() {
                    self.heal(shard, remote);
                } else if !self.ping(remote) {
                    let fails = match ping_fails.get_mut(shard) {
                        Some(f) => {
                            *f = f.saturating_add(1);
                            *f
                        }
                        None => 0,
                    };
                    if fails >= PING_FAILS {
                        self.event(&format!("quarantine shard={shard} reason=ping"));
                        remote.mark_resync();
                    }
                } else if let Some(f) = ping_fails.get_mut(shard) {
                    *f = 0;
                }
            }
            std::thread::sleep(MONITOR_EVERY);
        }
    }

    fn event(&self, msg: &str) {
        (self.on_event)(msg);
    }

    fn ping(&self, remote: &RemoteShard) -> bool {
        matches!(
            RemoteShard::control_once(&remote.addr(), ".ping", PROBE_TIMEOUT),
            Ok(line) if line.starts_with('+')
        )
    }

    /// Detect a dead child and respawn it. Returns `true` if a respawn
    /// happened this cycle. Attach mode (no specs) never respawns.
    fn manage_child(&self, shard: usize, remote: &Arc<RemoteShard>) -> bool {
        if self.specs.is_empty() {
            return false;
        }
        let dead = {
            let mut children = self.children.lock();
            match children.get_mut(shard) {
                Some(slot) => match slot {
                    Some(child) => match child.try_wait() {
                        Ok(Some(_status)) => {
                            *slot = None;
                            true
                        }
                        Ok(None) => false,
                        Err(_) => {
                            *slot = None;
                            true
                        }
                    },
                    None => true,
                },
                None => false,
            }
        };
        if !dead {
            return false;
        }
        // Quarantine *before* respawning: nothing may route to the
        // shard until the re-heal proves parity.
        remote.mark_resync();
        self.event(&format!("down shard={shard}"));
        // `.respawn hold` (chaos only): the shard stays down, answers
        // stay typed-degraded, until the test releases it.
        while self.respawn_hold.load(Ordering::Acquire) && !self.stopping() {
            std::thread::sleep(MONITOR_EVERY);
        }
        if self.stopping() {
            return false;
        }
        let Some(spec) = self.specs.get(shard) else {
            return false;
        };
        let has_dir = spec.persist_dir.as_deref().is_some_and(|d| d.is_dir());
        let attempt = if has_dir {
            launch(spec, true).map(|ok| (ok, "resume"))
        } else {
            launch(spec, false).map(|ok| (ok, "fresh"))
        };
        let ((child, addr), mode) = match attempt {
            Ok(ok) => ok,
            Err(_) if has_dir => {
                // The snapshot would not come up (e.g. corrupted past
                // recovery); wipe it and rebuild from scratch — the
                // deterministic replay re-ticks it to parity.
                if let Some(dir) = &spec.persist_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
                self.event(&format!("wipe shard={shard}"));
                match launch(spec, false) {
                    Ok(ok) => (ok, "fresh"),
                    Err(e) => {
                        self.event(&format!("respawn-failed shard={shard} err={e}"));
                        return true;
                    }
                }
            }
            Err(e) => {
                self.event(&format!("respawn-failed shard={shard} err={e}"));
                return true;
            }
        };
        self.event(&format!(
            "respawn shard={shard} pid={} addr={addr} mode={mode}",
            child.id()
        ));
        remote.set_addr(addr);
        let mut children = self.children.lock();
        if let Some(slot) = children.get_mut(shard) {
            *slot = Some(child);
        }
        true
    }

    /// One bounded re-heal attempt (see the module docs for the
    /// protocol). Leaves the shard quarantined unless every step
    /// passes.
    fn heal(&self, shard: usize, remote: &Arc<RemoteShard>) {
        let deadline = Instant::now() + HEAL_WINDOW;
        let addr = remote.addr();
        while Instant::now() < deadline && !self.stopping() {
            if !self.ping(remote) {
                std::thread::sleep(Duration::from_millis(100));
                continue;
            }
            // Identity: the shard must be serving *this* fleet's model.
            match self.verify_identity(&addr) {
                Some(true) => {}
                Some(false) => {
                    self.event(&format!("identity-mismatch shard={shard}"));
                    self.force_fresh(shard, remote);
                    return;
                }
                None => {
                    std::thread::sleep(Duration::from_millis(100));
                    continue;
                }
            }
            // Catch up outside the tick lock (ticks are slow).
            let target = *self.ticks.read();
            let Some(at) = shard_ticks(&addr) else {
                std::thread::sleep(Duration::from_millis(100));
                continue;
            };
            if at > target {
                // Ahead of the fleet: state from another run.
                self.event(&format!("ahead shard={shard} at={at} target={target}"));
                self.force_fresh(shard, remote);
                return;
            }
            if at < target {
                let delta = target - at;
                let ok = matches!(
                    RemoteShard::control_once(&addr, &format!(".tick {delta}"), CATCHUP_TIMEOUT),
                    Ok(line) if line.starts_with('+')
                );
                if !ok {
                    std::thread::sleep(Duration::from_millis(100));
                }
                continue;
            }
            // Parity seen; re-verify under the tick write lock so no
            // fan-out can slip between the check and the readmission.
            let guard = self.ticks.write();
            let frozen = *guard;
            let verified = shard_ticks(&addr) == Some(frozen);
            if verified {
                remote.clear_resync();
                drop(guard);
                self.event(&format!("heal shard={shard} ticks={frozen}"));
                return;
            }
            drop(guard);
            // The target moved while we were catching up; loop.
        }
    }

    /// `!meta` the shard and compare identity. `None` = could not ask
    /// (retry), `Some(false)` = wrong model.
    fn verify_identity(&self, addr: &str) -> Option<bool> {
        let body = statement_once(addr, "hl !meta", PROBE_TIMEOUT)?;
        let resp = decode_response(&ShardRequest::Meta, &body).ok()?;
        let ShardResponse::Meta(meta) = resp else {
            return Some(false);
        };
        Some(
            meta.series == self.expected_series
                && meta.assignments == self.expected_assignments
                && meta.shards == self.remotes.len(),
        )
    }

    /// Kill the child (if any) and blank its snapshot dir so the next
    /// monitor cycle respawns it fresh.
    fn force_fresh(&self, shard: usize, remote: &Arc<RemoteShard>) {
        remote.mark_resync();
        {
            let mut children = self.children.lock();
            if let Some(Some(child)) = children.get_mut(shard) {
                let _ = child.kill();
                let _ = child.wait();
            }
            if let Some(slot) = children.get_mut(shard) {
                *slot = None;
            }
        }
        if let Some(dir) = self.specs.get(shard).and_then(|s| s.persist_dir.as_ref()) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Gracefully stop every child: `.shutdown` best effort, then wait
    /// with a deadline, then kill.
    pub fn shutdown_children(&self) {
        self.stop();
        if self.specs.is_empty() {
            return;
        }
        for remote in &self.remotes {
            let _ = RemoteShard::control_once(&remote.addr(), ".shutdown", PROBE_TIMEOUT);
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut children = self.children.lock();
        for slot in children.iter_mut() {
            if let Some(child) = slot {
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(50))
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
            *slot = None;
        }
    }
}

/// The shard's current tick count, via `.epoch`.
fn shard_ticks(addr: &str) -> Option<u64> {
    let line = RemoteShard::control_once(addr, ".epoch", PROBE_TIMEOUT).ok()?;
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix("ticks="))
        .and_then(|t| t.parse().ok())
}

/// One statement over a fresh connection: returns the body lines of an
/// `OK` response (the status line is validated and dropped).
fn statement_once(addr: &str, line: &str, timeout: Duration) -> Option<Vec<String>> {
    use std::io::Write;
    let sockaddr: std::net::SocketAddr = addr.parse().ok()?;
    let mut stream = std::net::TcpStream::connect_timeout(&sockaddr, timeout).ok()?;
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    stream.write_all(line.as_bytes()).ok()?;
    stream.write_all(b"\n").ok()?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status).ok()?;
    let mut parts = status.split_whitespace();
    if parts.next() != Some("OK") {
        return None;
    }
    let _id = parts.next()?;
    let n: usize = parts.next()?.parse().ok()?;
    if n > 4096 {
        return None;
    }
    let mut body = Vec::with_capacity(n);
    for _ in 0..n {
        let mut l = String::new();
        match reader.read_line(&mut l) {
            Ok(k) if k > 0 => body.push(l.trim_end().to_string()),
            _ => return None,
        }
    }
    Some(body)
}
