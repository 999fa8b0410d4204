//! Transport-level hardening regressions: a client that floods an
//! unterminated mega-line or half-closes mid-line must get a *typed*
//! `PROTO` rejection, never an unbounded buffer, a hang, or a silent
//! drop — and the connection (and ledger) must stay coherent after it.

use affinity_core::measures::Measure;
use affinity_data::generator::{sensor_dataset, SensorConfig};
use affinity_serve::{ServeConfig, Server};
use affinity_stream::{StreamingConfig, StreamingEngine};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

const SERIES: usize = 8;
const WINDOW: usize = 32;

/// An in-process server on an OS-assigned port, with its accept loop
/// on a background thread.
struct Fixture {
    server: Arc<Server>,
    addr: std::net::SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Fixture {
    fn start() -> Fixture {
        let data = sensor_dataset(&SensorConfig::reduced(SERIES, 64));
        let mut scfg = StreamingConfig::new(WINDOW);
        scfg.indexed = Measure::EXTENDED.to_vec();
        let mut engine = StreamingEngine::new(SERIES, scfg);
        let mut row = vec![0.0; SERIES];
        for t in 0..WINDOW {
            for (v, slot) in row.iter_mut().enumerate() {
                *slot = data.series(v)[t];
            }
            engine.push(&row).expect("warm window");
        }
        let server = Server::new(engine, data, ServeConfig::default()).expect("server");
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                server.serve(listener).expect("serve loop");
            })
        };
        Fixture {
            server,
            addr,
            accept: Some(accept),
        }
    }

    fn connect(&self) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (stream, reader)
    }

    /// Read the ledger over a fresh connection (for tests whose own
    /// connection is already half-closed).
    fn ledger(&self) -> HashMap<String, u64> {
        let (mut stream, mut reader) = self.connect();
        stats(&mut stream, &mut reader)
    }

    fn stop(mut self) {
        self.server.request_shutdown();
        if let Some(h) = self.accept.take() {
            h.join().expect("accept thread");
        }
    }
}

/// Ask `.stats` in-band on the given connection. Controls are
/// answered by the connection's reader thread *after* it finishes any
/// preceding `handle_line` (including its admission bumps), so this is
/// the race-free way to observe the ledger a connection produced.
fn stats(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>) -> HashMap<String, u64> {
    stream.write_all(b".stats\n").expect("send .stats");
    let reply = read_line(reader);
    reply
        .strip_prefix("+stats ")
        .unwrap_or_else(|| panic!("bad .stats reply: {reply}"))
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .filter_map(|(k, v)| v.parse().ok().map(|v| (k.to_string(), v)))
        .collect()
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read response") > 0,
        "connection closed instead of answering"
    );
    line.trim_end().to_string()
}

/// A single line far beyond `MAX_LINE` must be rejected with a typed
/// `PROTO` error carrying the line's id prefix, its tail must be
/// swallowed rather than parsed as garbage requests, and the same
/// connection must keep answering real requests afterwards.
#[test]
fn oversized_line_gets_typed_proto_and_connection_survives() {
    // 80 KiB, and a line spanning several `MAX_LINE` read chunks.
    for len in [80 * 1024, 3 * affinity_coord::MAX_LINE as usize + 1024] {
        oversized_line(len);
    }
}

fn oversized_line(len: usize) {
    let fx = Fixture::start();
    let (mut stream, mut reader) = fx.connect();

    // `len` bytes of request, no newline until the very end. The id
    // prefix ("flood") fits well inside the first read chunk.
    let huge = format!("flood {}\n", "x".repeat(len));
    stream.write_all(huge.as_bytes()).expect("send flood");

    let reply = read_line(&mut reader);
    assert!(
        reply.starts_with("ERR flood PROTO "),
        "oversized line not rejected as typed PROTO: {reply}"
    );
    assert!(
        reply.contains("exceeds"),
        "rejection should say the bound was exceeded: {reply}"
    );

    // Exactly one response for the whole flood: the tail was swallowed,
    // not chopped into bogus follow-up requests.
    let ok = {
        stream.write_all(b"q1 MET mean > 0\n").expect("send query");
        read_line(&mut reader)
    };
    assert!(
        ok.starts_with("OK q1 "),
        "connection unusable after PROTO rejection: {ok}"
    );
    let n: usize = ok.split(' ').nth(2).unwrap().parse().unwrap();
    for _ in 0..n {
        let _ = read_line(&mut reader);
    }

    let ledger = stats(&mut stream, &mut reader);
    assert_eq!(ledger["rejected"], 1, "the flood counts once: {ledger:?}");
    assert_eq!(
        ledger["received"],
        ledger["admitted"] + ledger["rejected"],
        "admission split must cover the rejection: {ledger:?}"
    );
    fx.stop();
}

/// Half-closing with a partial (unterminated) line in flight must be
/// answered with a typed `PROTO unterminated` rejection — a dying
/// client's last fragment is reported, never silently dropped.
#[test]
fn unterminated_line_at_eof_is_rejected_typed() {
    let fx = Fixture::start();
    let (mut stream, mut reader) = fx.connect();

    stream
        .write_all(b"frag MET mean > 0") // no trailing newline
        .expect("send fragment");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let reply = read_line(&mut reader);
    assert!(
        reply.starts_with("ERR frag PROTO "),
        "unterminated fragment not rejected as typed PROTO: {reply}"
    );
    assert!(
        reply.contains("unterminated"),
        "rejection should name the cause: {reply}"
    );
    // The server then closes its side; nothing else arrives.
    let mut rest = String::new();
    let n = reader.read_to_string(&mut rest).unwrap_or(0);
    assert_eq!(n, 0, "unexpected bytes after the rejection: {rest:?}");

    let ledger = fx.ledger();
    assert_eq!(ledger["rejected"], 1, "{ledger:?}");
    assert_eq!(ledger["received"], 1, "{ledger:?}");
    fx.stop();
}

/// Back-to-back oversized lines on one connection: each flood costs
/// exactly one typed rejection (no double-reporting while swallowing),
/// and a well-formed request between them still answers.
#[test]
fn repeated_floods_count_once_each() {
    let fx = Fixture::start();
    let (mut stream, mut reader) = fx.connect();

    for round in 0..2 {
        let huge = format!("f{round} {}\n", "y".repeat(70 * 1024));
        stream.write_all(huge.as_bytes()).expect("send flood");
        let reply = read_line(&mut reader);
        assert!(
            reply.starts_with(&format!("ERR f{round} PROTO ")),
            "round {round}: {reply}"
        );
        stream
            .write_all(format!("ok{round} MET mean > 0\n").as_bytes())
            .expect("send query");
        let ok = read_line(&mut reader);
        assert!(
            ok.starts_with(&format!("OK ok{round} ")),
            "round {round}: {ok}"
        );
        let n: usize = ok.split(' ').nth(2).unwrap().parse().unwrap();
        for _ in 0..n {
            let _ = read_line(&mut reader);
        }
    }

    let ledger = stats(&mut stream, &mut reader);
    assert_eq!(ledger["rejected"], 2, "{ledger:?}");
    assert_eq!(ledger["ok"], 2, "{ledger:?}");
    assert_eq!(
        ledger["received"],
        ledger["admitted"] + ledger["rejected"],
        "{ledger:?}"
    );
    fx.stop();
}
