//! The coordinator's client-facing line protocol.
//!
//! Same framing as the serve crate — `<id> <statement>` lines answered
//! `OK <id> <n>` + body or `ERR <id> <CODE> <msg>` — plus one new
//! response form that only a distributed front-end needs:
//!
//! ```text
//! DEGRADED <id> <missing-shards-csv> <n>
//! ```
//!
//! followed by `n` body lines: the statement's answer *without* the
//! named shards' contribution. A partial answer is always typed; a
//! client that never checks for `DEGRADED` can run `--strict`, which
//! turns every partial answer into `ERR ... UNAVAILABLE`.
//!
//! Control commands:
//!
//! ```text
//! .ping          liveness probe
//! .stats         the conservation ledger (key=value pairs)
//! .health        per-shard breaker state + resync flags + tick count
//! .tick <k>      fan k replay ticks to every attached shard server
//! .shutdown      graceful shutdown
//! ```
//!
//! Requests are read by the shared [`crate::lines`] reader: lines over
//! [`MAX_LINE`](crate::MAX_LINE) and unterminated lines at EOF are
//! answered with one typed `PROTO` error each.

use crate::backend::ShardBackend;
use crate::coordinator::{shard_list, Coordinator};
use crate::lines::{accept_loop, bounded, one_line, Conn, LineHandler};
use crate::remote::RemoteShard;
use crate::stats::CoordStats;
use parking_lot::RwLock;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Timeout for `.tick` fan-out control calls to shard servers (a tick
/// recomputes models, so it is far slower than a query).
const TICK_TIMEOUT: Duration = Duration::from_secs(30);

/// The coordinator front-end: accepts client connections, executes
/// statements through the [`Coordinator`], and exposes fleet health.
pub struct CoordServer {
    coordinator: Coordinator,
    /// TCP backends, when serving a remote fleet (empty for a pure
    /// in-process coordinator). Used by `.tick`/`.health` and shared
    /// with the supervisor.
    remotes: Vec<Arc<RemoteShard>>,
    /// Logical tick target of the fleet. Writers (`.tick`) hold the
    /// write lock across the fan-out so the supervisor's re-heal
    /// (which reads it under the same lock) can never readmit a shard
    /// against a moving target.
    ticks: Arc<RwLock<u64>>,
    shutdown: AtomicBool,
}

impl CoordServer {
    /// Wrap a constructed coordinator. `remotes` lists the TCP
    /// backends in shard order when serving a remote fleet; pass an
    /// empty vector for in-process backends.
    pub fn new(coordinator: Coordinator, remotes: Vec<Arc<RemoteShard>>) -> Arc<CoordServer> {
        // Seed the tick ledger with the fleet's baseline (window
        // warm-up counts as ticks), so re-heal parity targets match
        // what `.epoch` reports on the shard servers.
        let baseline = coordinator.meta().ticks;
        Arc::new(CoordServer {
            coordinator,
            remotes,
            ticks: Arc::new(RwLock::new(baseline)),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The routing layer (tests drive it directly).
    pub fn coordinator(&self) -> &Coordinator {
        &self.coordinator
    }

    /// The fleet tick target, shared with the supervisor's re-heal.
    pub fn ticks(&self) -> &Arc<RwLock<u64>> {
        &self.ticks
    }

    /// The TCP backends, in shard order (empty when in-process).
    pub fn remotes(&self) -> &[Arc<RemoteShard>] {
        &self.remotes
    }

    /// The conservation ledger.
    pub fn stats(&self) -> &Arc<CoordStats> {
        self.coordinator.stats()
    }

    /// Request shutdown; idempotent, callable from any thread.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Run the accept loop until shutdown. Returns the final ledger.
    ///
    /// # Errors
    /// Listener failures.
    pub fn serve(self: &Arc<Self>, listener: TcpListener) -> std::io::Result<String> {
        let readers = accept_loop(self, &listener, "affinity-coord-conn")
            .inspect_err(|_| self.request_shutdown())?;
        for r in readers {
            let _ = r.join();
        }
        Ok(self.stats().render())
    }

    fn control(&self, cmd: &str, conn: &Conn) {
        let parts: Vec<&str> = cmd.split_whitespace().collect();
        let reply = match parts.first().copied() {
            Some("ping") => "+pong\n".to_string(),
            Some("stats") => format!("+stats {}\n", self.stats().render()),
            Some("health") => {
                let mut out = String::from("+health");
                for remote in &self.remotes {
                    out.push_str(&format!(
                        " s{}={}{}",
                        remote.shard(),
                        remote.state_name(),
                        if remote.resyncing() { ":resync" } else { "" }
                    ));
                }
                out.push_str(&format!(" ticks={}\n", *self.ticks.read()));
                out
            }
            Some("tick") => {
                let count = parts
                    .get(1)
                    .and_then(|s| s.parse::<u64>().ok())
                    .filter(|k| (1..=1_000_000).contains(k));
                match count {
                    Some(k) if self.remotes.is_empty() => {
                        let _ = k;
                        "-err tick requires attached shard servers\n".to_string()
                    }
                    Some(k) => self.fan_ticks(k),
                    None => "-err usage: .tick <1..=1000000>\n".to_string(),
                }
            }
            Some("shutdown") => {
                conn.send("+bye\n");
                self.request_shutdown();
                return;
            }
            Some(other) => format!("-err unknown command '.{}'\n", bounded(other)),
            None => "-err empty command\n".to_string(),
        };
        conn.send(&reply);
    }

    /// Advance the fleet tick target by `k`, fanning `.tick k` to every
    /// shard server — including ones whose breaker is open but whose
    /// process may be alive (a stalled shard that misses ticks would
    /// otherwise serve *stale* answers after an organic breaker
    /// re-close; shards that miss the fan-out are quarantined until the
    /// supervisor proves tick-parity).
    fn fan_ticks(&self, k: u64) -> String {
        let mut ticks = self.ticks.write();
        let mut sent = 0usize;
        let mut quarantined = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .remotes
                .iter()
                .filter(|r| !r.resyncing())
                .map(|remote| {
                    scope.spawn(move || {
                        let reply = RemoteShard::control_once(
                            &remote.addr(),
                            &format!(".tick {k}"),
                            TICK_TIMEOUT,
                        );
                        match reply {
                            Ok(line) if line.starts_with('+') => true,
                            _ => {
                                remote.mark_resync();
                                false
                            }
                        }
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(true) => sent += 1,
                    _ => quarantined += 1,
                }
            }
        });
        *ticks += k;
        let total = *ticks;
        drop(ticks);
        format!("+ticks total={total} shards={sent} quarantined={quarantined}\n")
    }
}

impl LineHandler for CoordServer {
    fn stopping(&self) -> bool {
        self.is_shutting_down()
    }

    /// A transport-level rejection still counts in the statement
    /// ledger (`stmts == ok + degraded_answers + unavailable + errors`
    /// must cover every request a client framed, however badly).
    fn reject(&self, conn: &Arc<Conn>, id: &str, msg: &str) {
        let stats = self.stats();
        CoordStats::bump(&stats.stmts);
        CoordStats::bump(&stats.errors);
        conn.send(&format!("ERR {id} PROTO {msg}\n"));
    }

    fn line(&self, conn: &Arc<Conn>, line: &str) {
        if line.is_empty() {
            return;
        }
        if let Some(cmd) = line.strip_prefix('.') {
            self.control(cmd, conn);
            return;
        }
        let Some((id, statement)) = line.split_once(' ') else {
            self.reject(conn, &bounded(line), "expected '<id> <statement>'");
            return;
        };
        // Hold the tick read lock across execution: `.tick` fan-outs
        // (write lock) are serialized against in-flight statements, so
        // no statement ever merges shards at different tick counts.
        let ticks = self.ticks.read();
        let result = catch_unwind(AssertUnwindSafe(|| self.coordinator.execute(statement)));
        drop(ticks);
        let response = match result {
            Ok(Ok(answer)) => {
                let text = answer.output.to_string();
                let n = text.lines().count();
                if answer.missing.is_empty() {
                    format!("OK {id} {n}\n{text}")
                } else {
                    let missing = shard_list(&answer.missing);
                    format!("DEGRADED {id} {missing} {n}\n{text}")
                }
            }
            Ok(Err(e)) => format!("ERR {id} {} {}\n", e.code, one_line(&e.message)),
            Err(_) => {
                // The coordinator must survive anything a shard feeds
                // it; a panic is contained to the statement and typed.
                let stats = self.stats();
                CoordStats::bump(&stats.errors);
                format!("ERR {id} INTERNAL statement execution panicked\n")
            }
        };
        conn.send(&response);
    }
}
