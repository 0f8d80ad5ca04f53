//! TCP integration tests for the event-driven serving reactor.
//!
//! These drive the real socket paths — [`oocq_service::reactor::run`] and
//! the thread-per-connection [`oocq_service::accept_loop`] — with hundreds
//! of concurrent pipelined clients and pin the determinism contract at the
//! transport level: every connection's transcript must be byte-identical
//! to the in-process [`serve`] loop on the same input, across serving
//! modes and worker-pool sizes, and on the framing edge cases as well.
#![cfg(target_os = "linux")]

use oocq_core::EngineConfig;
use oocq_service::{accept_loop, escape, CanonicalDecisionCache, ServiceEngine, IN_CAP};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;

fn engine(threads: usize) -> ServiceEngine {
    ServiceEngine::with_cache(
        EngineConfig::with_threads(threads),
        Some(Arc::new(CanonicalDecisionCache::new(4096))),
    )
}

/// A serving-mode-agnostic server handle: stops and joins on drop.
struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Server {
    fn start(engine: ServiceEngine, reactor: bool) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::spawn(move || {
            if reactor {
                oocq_service::reactor::run(&listener, &engine, &stop2)
            } else {
                accept_loop(&listener, &engine, &stop2)
            }
        });
        Server {
            addr,
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(h) = self.handle.take() {
            h.join().unwrap().unwrap();
        }
    }
}

/// Pipeline a whole session over one connection and collect the reply.
fn exchange(addr: SocketAddr, input: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(input.as_bytes()).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}

/// The five corpus programs as `run` sessions, plus their expected
/// transcripts computed through the in-process [`serve`] reference.
fn sessions() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let reference = engine(1);
    let mut out = Vec::new();
    for name in [
        "inequalities",
        "n1_partition",
        "paths",
        "university",
        "vehicle_rental",
    ] {
        let program = std::fs::read_to_string(dir.join(format!("{name}.oocq")))
            .unwrap_or_else(|e| panic!("missing corpus program {name}: {e}"));
        let input = format!("stats off\nrun {}\nquit\n", escape(&program));
        let mut expected = Vec::new();
        oocq_service::serve(input.as_bytes(), &mut expected, &reference).unwrap();
        out.push((input, String::from_utf8(expected).unwrap()));
    }
    out
}

/// Fan `n` concurrent clients (cycling through the sessions) at `addr`
/// and return each connection's transcript alongside its expectation.
fn storm(addr: SocketAddr, sessions: &[(String, String)], n: usize) -> Vec<(String, String)> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let (input, expected) = &sessions[i % sessions.len()];
                scope.spawn(move || (exchange(addr, input), expected.clone()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Tentpole pin: hundreds of concurrent pipelined connections through the
/// reactor, every transcript byte-identical to the in-process reference
/// (which also checks `[seq]` ordering — the reference's seqs are dense).
#[test]
fn reactor_serves_hundreds_of_concurrent_pipelined_clients_byte_identically() {
    let sessions = sessions();
    let server = Server::start(engine(8), true);
    for (i, (got, expected)) in storm(server.addr, &sessions, 240).into_iter().enumerate() {
        assert_eq!(got, expected, "transcript drift on connection {i}");
    }
}

/// The reactor and the thread-per-connection path must be observationally
/// indistinguishable, byte for byte.
#[test]
fn reactor_and_thread_per_connection_transcripts_are_byte_identical() {
    let sessions = sessions();
    let reactor = Server::start(engine(4), true);
    let legacy = Server::start(engine(4), false);
    let via_reactor = storm(reactor.addr, &sessions, 40);
    let via_legacy = storm(legacy.addr, &sessions, 40);
    for (i, ((r, expected), (l, _))) in via_reactor.iter().zip(&via_legacy).enumerate() {
        assert_eq!(r, l, "serving modes disagree on connection {i}");
        assert_eq!(r, expected, "both modes drifted from serve() on {i}");
    }
}

/// Worker-pool size must not leak into reactor output bytes.
#[test]
fn reactor_transcripts_are_identical_across_thread_counts() {
    let sessions = sessions();
    let serial = Server::start(engine(1), true);
    let pooled = Server::start(engine(8), true);
    let one = storm(serial.addr, &sessions, 10);
    let eight = storm(pooled.addr, &sessions, 10);
    for (i, ((a, _), (b, _))) in one.iter().zip(&eight).enumerate() {
        assert_eq!(a, b, "OOCQ_THREADS changed reactor bytes on connection {i}");
    }
}

/// Yields its bytes, then ends the stream: cleanly, or with a read error.
struct Scripted {
    bytes: std::io::Cursor<Vec<u8>>,
    fail: bool,
}

impl Read for Scripted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.bytes.read(buf)? {
            0 if self.fail => Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "peer vanished",
            )),
            n => Ok(n),
        }
    }
}

fn via_serve(input: &[u8], fail: bool) -> String {
    let reader = std::io::BufReader::new(Scripted {
        bytes: std::io::Cursor::new(input.to_vec()),
        fail,
    });
    let mut out = Vec::new();
    oocq_service::serve(reader, &mut out, &engine(2)).unwrap();
    String::from_utf8(out).unwrap()
}

/// The same bytes get the same answers on every transport: the blocking
/// loop and the reactor frame input through one shared core, so invalid
/// UTF-8, CR-LF, the line cap and an unterminated tail are answered alike
/// however the bytes arrive. Each input goes out in one write.
#[test]
fn transport_parity_on_framing_edge_cases() {
    let long_line = |n: usize, tail: &[u8]| {
        let mut v = b"stats off\n".to_vec();
        v.extend(std::iter::repeat_n(b'x', n));
        v.extend_from_slice(tail);
        v
    };
    let cases: Vec<(&str, Vec<u8>, &str)> = vec![
        (
            "invalid utf-8 between pings",
            b"stats off\nping\n\xff\xfe\nping\n".to_vec(),
            "[3] ok pong",
        ),
        (
            "cr-lf lines",
            b"stats off\r\nschema s class C {}\r\nquery s Q { x | x in C }\r\n\
              contains s Q Q\r\nping\r\n"
                .to_vec(),
            "[4] ok pong",
        ),
        (
            "a line just over the cap, newline in the same write",
            long_line(IN_CAP + 10, b"\nping\n"),
            "[2] ok pong",
        ),
        (
            "an unterminated final line",
            b"stats off\nping\nping".to_vec(),
            "[2] ok pong",
        ),
        (
            "an oversized line without a newline, then EOF",
            long_line(IN_CAP + 10, b""),
            "[1] err line too long",
        ),
    ];
    let server = Server::start(engine(2), true);
    for (name, input, expect) in &cases {
        let mut s = TcpStream::connect(server.addr).unwrap();
        s.write_all(input).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut over_tcp = String::new();
        s.read_to_string(&mut over_tcp).unwrap();
        let over_serve = via_serve(input, false);
        assert_eq!(over_serve, over_tcp, "{name}: transports disagree");
        assert!(over_tcp.contains(expect), "{name}: {over_tcp}");
    }
    // A mid-stream read error (only the blocking side can be made to fail):
    // the buffered lines are answered as over a clean stream, then the
    // error is the final response.
    let input = b"stats off\nping\n\xff\xfe\n";
    let clean = via_serve(input, false);
    assert_eq!(
        via_serve(input, true),
        format!("{clean}[3] err read error: peer vanished; closing connection\n")
    );
    assert_eq!(clean, exchange_bytes(server.addr, input));
}

fn exchange_bytes(addr: SocketAddr, input: &[u8]) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(input).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    let mut out = String::new();
    s.read_to_string(&mut out).unwrap();
    out
}
