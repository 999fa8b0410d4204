//! The load generator: line-protocol clients over loopback TCP, the
//! closed-loop query streams, and the tick batches (open-loop on a fixed
//! schedule, or back to back).

use crate::gen::Pool;
use crate::stats::{fnv1a_from, kv_u64, FNV_OFFSET};
use crate::trace::Tracer;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How a statement was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    /// A typed `ERR` or a `DEGRADED` partial answer.
    Refused,
    Malformed,
}

#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: Status,
    pub rows: usize,
    /// Bytes of the whole response, header included.
    pub bytes: usize,
    /// FNV-1a of the body bytes.
    pub digest: u64,
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A wedged server must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(256 * 1024, stream),
            line: Vec::with_capacity(256),
        })
    }

    fn read_line(&mut self) -> io::Result<usize> {
        self.line.clear();
        let n = self.reader.read_until(b'\n', &mut self.line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(n)
    }

    /// One statement round trip. The body is digested as it is read and
    /// appended to `body` when one is given.
    pub fn request(&mut self, line: &[u8], mut body: Option<&mut Vec<u8>>) -> io::Result<Reply> {
        self.writer.write_all(line)?;
        let mut bytes = self.read_line()?;
        let (status, rows) = {
            let header = String::from_utf8_lossy(&self.line);
            let mut parts = header.split_whitespace();
            match parts.next() {
                Some("OK") => (Status::Ok, parts.nth(1).and_then(|n| n.parse().ok())),
                Some("DEGRADED") => (Status::Refused, parts.nth(2).and_then(|n| n.parse().ok())),
                Some("ERR") => (Status::Refused, Some(0)),
                _ => (Status::Malformed, Some(0)),
            }
        };
        let Some(rows) = rows else {
            return Ok(Reply {
                status: Status::Malformed,
                rows: 0,
                bytes,
                digest: FNV_OFFSET,
            });
        };
        let mut digest = FNV_OFFSET;
        for _ in 0..rows {
            bytes += self.read_line()?;
            digest = fnv1a_from(digest, &self.line);
            if let Some(b) = body.as_deref_mut() {
                b.extend_from_slice(&self.line);
            }
        }
        Ok(Reply {
            status,
            rows,
            bytes,
            digest,
        })
    }

    /// A dot-command and its one-line reply.
    pub fn control(&mut self, cmd: &str) -> io::Result<String> {
        self.writer.write_all(format!("{cmd}\n").as_bytes())?;
        self.read_line()?;
        Ok(String::from_utf8_lossy(&self.line).trim_end().to_string())
    }
}

/// One class's stream: every client's schedule, run closed-loop.
#[derive(Debug, Default)]
pub struct StreamResult {
    /// Latency of every statement, microseconds, unsorted.
    pub latency_us: Vec<f64>,
    /// In traced runs: the same latencies split by whether the request
    /// recorded a span (every second one does).
    pub spanned_us: Vec<f64>,
    pub unspanned_us: Vec<f64>,
    pub wall_s: f64,
    pub bytes: u64,
    pub rows: u64,
    /// Typed refusals, malformed responses, and bodies that differ from
    /// the verified body of the same statement.
    pub failed: u64,
}

/// Run `schedules` (indices into `pool`) against `addr`, one thread and
/// connection per schedule, each sending its next statement only after
/// the previous answer. `verified`, when given, holds the body digest
/// every statement must reproduce.
pub fn run_stream(
    addr: &str,
    pool: &Pool,
    schedules: &[Vec<u32>],
    verified: Option<&[u64]>,
    span_name: &'static str,
    tracer: &mut Tracer,
) -> io::Result<StreamResult> {
    let origin = tracer.origin();
    let traced = tracer.enabled();
    let t0 = Instant::now();
    let per_client: Vec<io::Result<(StreamResult, Tracer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr)?;
                    let mut local = Tracer::new(traced, origin);
                    let mut out = StreamResult::default();
                    out.latency_us.reserve(schedule.len());
                    for (i, &idx) in schedule.iter().enumerate() {
                        let idx = idx as usize;
                        let spanned = traced && i % 2 == 0;
                        let t = Instant::now();
                        let open = spanned.then(|| local.open(span_name));
                        let reply = conn.request(&pool.lines[idx], None)?;
                        if let Some(open) = open {
                            local.close(open);
                        }
                        let us = t.elapsed().as_secs_f64() * 1e6;
                        out.latency_us.push(us);
                        if traced {
                            if spanned {
                                &mut out.spanned_us
                            } else {
                                &mut out.unspanned_us
                            }
                            .push(us);
                        }
                        out.bytes += reply.bytes as u64;
                        out.rows += reply.rows as u64;
                        let same = verified.is_none_or(|v| v[idx] == reply.digest);
                        if reply.status != Status::Ok || !same {
                            out.failed += 1;
                        }
                    }
                    Ok((out, local))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = StreamResult {
        wall_s: t0.elapsed().as_secs_f64(),
        ..StreamResult::default()
    };
    for client in per_client {
        let (r, local) = client?;
        total.latency_us.extend(r.latency_us);
        total.spanned_us.extend(r.spanned_us);
        total.unspanned_us.extend(r.unspanned_us);
        total.bytes += r.bytes;
        total.rows += r.rows;
        total.failed += r.failed;
        tracer.absorb(local);
    }
    Ok(total)
}

/// Where tick batches go and where the new epoch must show.
#[derive(Debug, Clone)]
pub struct RefreshTarget {
    /// Takes `.tick <k>`: the server, or the coordinator (which fans the
    /// batch out to its shard servers).
    pub tick_addr: String,
    /// Each answers `.epoch`: the server, or every shard server.
    pub epoch_addrs: Vec<String>,
}

#[derive(Debug, Default)]
pub struct RefreshResult {
    /// Due instant → new epoch visible, milliseconds, per batch.
    pub latency_ms: Vec<f64>,
    /// How late each batch left after its due instant, milliseconds.
    pub late_ms: Vec<f64>,
    /// Batches after which the epoch had not advanced by exactly one on
    /// every server, or whose `.tick` was refused.
    pub failed: u64,
}

fn epoch_id(conn: &mut Conn) -> io::Result<u64> {
    Ok(kv_u64(&conn.control(".epoch")?, "id"))
}

/// Send `batches` batches of `ticks` ticks. With a `period` the batches
/// leave on a fixed schedule (open loop: latency runs from the due
/// instant, so a stall is charged to the batches it delays); without
/// one, each leaves when the previous one's epoch is visible.
pub fn run_refresh(
    target: &RefreshTarget,
    batches: usize,
    ticks: u64,
    period: Option<Duration>,
) -> io::Result<RefreshResult> {
    let mut tick_conn = Conn::connect(&target.tick_addr)?;
    let mut epoch_conns = target
        .epoch_addrs
        .iter()
        .map(|a| Conn::connect(a))
        .collect::<io::Result<Vec<_>>>()?;
    let mut last: Vec<u64> = epoch_conns
        .iter_mut()
        .map(epoch_id)
        .collect::<io::Result<_>>()?;
    let mut out = RefreshResult::default();
    let t0 = Instant::now();
    for i in 0..batches {
        let due = match period {
            Some(p) => {
                let due = t0 + p * i as u32;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                due
            }
            None => Instant::now(),
        };
        out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
        let ack = tick_conn.control(&format!(".tick {ticks}"))?;
        let mut advanced_once = ack.starts_with('+');
        for (conn, last) in epoch_conns.iter_mut().zip(&mut last) {
            let now = epoch_id(conn)?;
            advanced_once &= now == *last + 1;
            *last = now;
        }
        out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3);
        if !advanced_once {
            out.failed += 1;
        }
    }
    Ok(out)
}
