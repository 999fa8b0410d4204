//! Transport-level framing of the coordinator's client protocol over
//! loopback: a request line several times `MAX_LINE` long is rejected
//! with exactly one typed `PROTO` error (its tail swallowed, not
//! re-rejected chunk by chunk), it counts once in the statement ledger,
//! and the same connection keeps answering.

use affinity_coord::{CoordServer, CoordStats, Coordinator, InProcBackend, ShardBackend, MAX_LINE};
use affinity_core::measures::Measure;
use affinity_core::prelude::{Symex, SymexParams};
use affinity_data::generator::{sensor_dataset, SensorConfig};
use affinity_par::ThreadPool;
use affinity_shard::{ShardPlan, ShardedModel};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    assert!(
        reader.read_line(&mut line).expect("read response") > 0,
        "connection closed instead of answering"
    );
    line.trim_end().to_string()
}

#[test]
fn oversized_line_is_rejected_once_and_connection_survives() {
    let data = sensor_dataset(&SensorConfig::reduced(8, 64));
    let affine = Symex::new(SymexParams::default())
        .run(&data)
        .expect("affine fit");
    let plan = ShardPlan::blocked(data.series_count(), 2);
    let model = ShardedModel::from_global(
        &data,
        &affine,
        plan,
        &Measure::EXTENDED,
        Arc::new(ThreadPool::new(1)),
    )
    .expect("sharded build");
    let stats = Arc::new(CoordStats::new());
    let backends: Vec<Arc<dyn ShardBackend>> = (0..2)
        .map(|i| Arc::new(InProcBackend::new(&model, i, Arc::clone(&stats))) as _)
        .collect();
    let coord = Coordinator::new(backends, Vec::new(), false, Arc::clone(&stats))
        .expect("coordinator construction");
    let server = CoordServer::new(coord, Vec::new());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.serve(listener).expect("serve loop"))
    };

    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;

    let len = 3 * MAX_LINE as usize + 1024;
    let flood = format!("flood {}\n", "x".repeat(len));
    stream.write_all(flood.as_bytes()).expect("send flood");
    let reply = read_line(&mut reader);
    assert!(
        reply.starts_with("ERR flood PROTO ") && reply.contains("exceeds"),
        "oversized line not rejected as typed PROTO: {reply}"
    );

    // The very next reply answers the next request: the flood's tail
    // produced no further rejections.
    stream.write_all(b"q1 MET mean > 0\n").expect("send query");
    let ok = read_line(&mut reader);
    assert!(
        ok.starts_with("OK q1 "),
        "flood answered more than once: {ok}"
    );
    let n: usize = ok
        .split(' ')
        .nth(2)
        .and_then(|n| n.parse().ok())
        .expect("row count");
    for _ in 0..n {
        read_line(&mut reader);
    }

    stream.write_all(b".stats\n").expect("send .stats");
    let ledger = read_line(&mut reader);
    assert!(
        ledger.contains(" stmts=2 ") && ledger.ends_with(" errors=1"),
        "the flood counts once: {ledger}"
    );
    assert!(stats.balanced(), "ledger unbalanced: {}", stats.render());

    stream.write_all(b".shutdown\n").expect("send .shutdown");
    assert_eq!(read_line(&mut reader), "+bye");
    accept.join().expect("accept thread");
}
