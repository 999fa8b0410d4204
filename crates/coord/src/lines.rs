//! The accept loop and bounded request-line reader both TCP front ends
//! share — the serve line protocol and the coordinator's client
//! protocol — so they frame, bound and reject input identically.
//!
//! The reader is hardened against byte soup: a line over [`MAX_LINE`]
//! is answered once with a typed rejection and its tail swallowed up to
//! the next newline, and an unterminated line at EOF is a typed
//! rejection too, never a silent drop.

use parking_lot::Mutex;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest accepted request line; longer input is rejected instead of
/// growing an unbounded buffer.
pub const MAX_LINE: u64 = 64 * 1024;

/// Poll interval for accept loops and reader timeouts: bounds how long
/// shutdown waits on an idle socket.
pub const POLL: Duration = Duration::from_millis(50);

/// One connection's response half: every response is a single locked
/// write of a complete message, so responses from several threads never
/// interleave.
pub struct Conn {
    writer: Mutex<TcpStream>,
    alive: AtomicBool,
}

impl Conn {
    /// Write one complete response (must be newline-terminated). A
    /// failed or timed-out write marks the connection dead; later
    /// responses to it are dropped.
    pub fn send(&self, text: &str) {
        self.send_after(text, || {});
    }

    /// [`send`](Conn::send), running `stall` under the writer lock
    /// first — the hook for a fault-injected slow reader.
    pub fn send_after(&self, text: &str, stall: impl FnOnce()) {
        if !self.alive.load(Ordering::Acquire) {
            return;
        }
        let mut stream = self.writer.lock();
        stall();
        // afflint: allow(lock-io) -- the writer mutex exists precisely to serialize this one complete write per response; no other lock is held and readers never block on it
        if stream.write_all(text.as_bytes()).is_err() {
            self.alive.store(false, Ordering::Release);
        }
    }
}

/// A line-protocol front end: what the shared reader hands each
/// connection's input to.
pub trait LineHandler: Send + Sync + 'static {
    /// Whether shutdown was requested; the accept loop and every reader
    /// stop polling.
    fn stopping(&self) -> bool;
    /// Answer one complete, trimmed request line.
    fn line(&self, conn: &Arc<Conn>, line: &str);
    /// Answer an oversized or unterminated line, once per line. `id` is
    /// its clipped first token (`?` when it has none).
    fn reject(&self, conn: &Arc<Conn>, id: &str, reason: &str);
}

/// Accept connections until `handler` is stopping, reading each on its
/// own thread named `name`. Returns the connection threads for the
/// caller to join once its workers have drained.
///
/// # Errors
/// Listener failures other than an idle poll or an interrupt.
pub fn accept_loop<H: LineHandler>(
    handler: &Arc<H>,
    listener: &TcpListener,
    name: &str,
) -> std::io::Result<Vec<JoinHandle<()>>> {
    listener.set_nonblocking(true)?;
    let mut readers = Vec::new();
    while !handler.stopping() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handler = Arc::clone(handler);
                let spawned = std::thread::Builder::new()
                    .name(name.into())
                    .spawn(move || read_lines(&*handler, stream));
                // On thread exhaustion: shed this connection (the stream
                // drops and closes) but keep serving the ones we have.
                if let Ok(handle) = spawned {
                    readers.push(handle);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(readers)
}

/// Read one connection's request lines until EOF, a read error, a dead
/// writer, or shutdown, handing each complete line or rejection to
/// `handler`.
fn read_lines(handler: &dyn LineHandler, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    // A stalled client bounds a response write at this, not forever.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
        alive: AtomicBool::new(true),
    });
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    // True while discarding the tail of an already-rejected oversized
    // line, so its remaining chunks are neither parsed nor re-rejected.
    let mut swallowing = false;
    while !handler.stopping() && conn.alive.load(Ordering::Acquire) {
        // Partial reads survive the poll timeout: `buf` accumulates.
        match (&mut reader).take(MAX_LINE).read_line(&mut buf) {
            Ok(0) => {
                if !buf.is_empty() && !swallowing {
                    handler.reject(&conn, &line_id_prefix(&buf), "unterminated line at EOF");
                }
                break;
            }
            Ok(_) if buf.ends_with('\n') => {
                let line = std::mem::take(&mut buf);
                if !std::mem::take(&mut swallowing) {
                    handler.line(&conn, line.trim());
                }
            }
            Ok(_) if buf.len() as u64 >= MAX_LINE => {
                if !std::mem::replace(&mut swallowing, true) {
                    let reason = format!("line exceeds {MAX_LINE} bytes");
                    handler.reject(&conn, &line_id_prefix(&buf), &reason);
                }
                buf.clear();
            }
            Ok(_) => {} // partial line, keep accumulating
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
    }
}

/// Collapse a message to a single protocol-safe line.
pub fn one_line(s: &str) -> String {
    s.replace(['\n', '\r'], " ")
}

/// Clip untrusted echoed input to a short printable token.
pub fn bounded(s: &str) -> String {
    let clipped: String = s.chars().take(32).collect();
    one_line(&clipped)
}

/// The response tag of a rejected raw line: its first whitespace token,
/// clipped, so the client can still correlate the typed rejection; `?`
/// when there is none.
fn line_id_prefix(raw: &str) -> String {
    match raw.split_whitespace().next() {
        Some(tok) => bounded(tok),
        None => "?".to_string(),
    }
}
