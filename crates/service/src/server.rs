//! The blocking serving loop of `oocq-serve` and its TCP accept loop.
//!
//! [`serve`] runs one connection over any `BufRead`/`Write` pair: stdin and
//! stdout, or one TCP stream of [`accept_loop`]. The calling thread reads
//! raw bytes, frames and handles request lines through the shared
//! connection core ([`crate::conn`], which states the protocol rules once
//! for both serving loops), and hands decision requests to a pool of
//! `OOCQ_THREADS` workers. Workers push finished responses through the
//! core's reorder buffer, which writes them strictly in sequence order.
//!
//! Fault isolation (see DESIGN.md §8):
//!
//! * the job queue is **bounded** ([`ServiceEngine::queue_bound`]): the
//!   reading thread blocks instead of buffering an unbounded backlog, which
//!   propagates backpressure to the client through the unread input stream;
//! * each job runs under **`catch_unwind`**: a panicking request becomes
//!   its own `err internal …` response, so its sequence number is always
//!   emitted and the reorder buffer never stalls;
//! * a **mid-stream read error** is answered with a final `err` line before
//!   the connection closes, instead of a silent teardown.

use crate::conn::{Action, Job, LineFramer, Queue, Requests, Responses, POISONED};
use crate::engine::ServiceEngine;
use crate::flight::FlightStats;
use crate::protocol::render_response;
use std::io::{BufRead, ErrorKind, Write};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};

/// The writing half of a blocking connection: the reorder buffer in front
/// of the output stream, shared by the reading thread and the workers.
struct Output<W: Write> {
    responses: Responses,
    out: W,
    error: Option<std::io::Error>,
}

impl<W: Write> Output<W> {
    fn emit(&mut self, seq: u64, line: String) {
        if self.error.is_some() {
            return;
        }
        let (out, error) = (&mut self.out, &mut self.error);
        let mut wrote = false;
        self.responses.emit(seq, line, |l| {
            if error.is_none() {
                match writeln!(out, "{l}") {
                    Ok(()) => wrote = true,
                    Err(e) => *error = Some(e),
                }
            }
        });
        if wrote && self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
    }

    fn finish(mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        let mut result = Ok(());
        let out = &mut self.out;
        self.responses.flush_stranded(|l| {
            if result.is_ok() {
                result = writeln!(out, "{l}");
            }
        });
        result?;
        self.out.flush()
    }
}

/// Run the request loop over arbitrary streams until EOF or `quit`,
/// blocking until every response has been written.
pub fn serve<R: BufRead, W: Write + Send>(
    mut input: R,
    output: W,
    engine: &ServiceEngine,
) -> std::io::Result<()> {
    let queue: Queue<Job> = Queue::new(engine.queue_bound());
    let output = Mutex::new(Output {
        responses: Responses::new(),
        out: output,
        error: None,
    });
    std::thread::scope(|scope| {
        for _ in 0..engine.pool_threads() {
            scope.spawn(|| {
                while let Some(job) = queue.pop() {
                    let line = job.run(engine);
                    output.lock().expect(POISONED).emit(job.seq, line);
                }
            });
        }
        let mut framer = LineFramer::new();
        let mut requests = Requests::new();
        // There is no singleflight table without the reactor, so the
        // coalescing counters of `stats show` are legitimately zero; the
        // backlog is live.
        let stats_show = |seq: u64| {
            let backlog = output.lock().expect(POISONED).responses.backlog(seq);
            engine.stats_report(&FlightStats::default(), backlog)
        };
        'session: loop {
            while let Some(frame) = framer.next_frame() {
                match requests.handle(engine, frame, stats_show) {
                    Some(Action::Reply { seq, line }) => {
                        output.lock().expect(POISONED).emit(seq, line)
                    }
                    Some(Action::Decide(job)) => queue.push(job),
                    None => {}
                }
                if requests.quit() {
                    break 'session;
                }
            }
            if framer.eof() {
                break;
            }
            match input.fill_buf() {
                Ok([]) => framer.finish(None),
                Ok(bytes) => {
                    let n = bytes.len();
                    framer.push(bytes);
                    input.consume(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => framer.finish(Some(format!("read error: {e}; closing connection"))),
            }
        }
        queue.close();
    });
    output.into_inner().expect(POISONED).finish()
}

/// How an `accept` failure should be handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptClass {
    /// Resource pressure or a peer that vanished mid-handshake: log, back
    /// off, keep serving the connections we already have.
    Transient,
    /// The listener itself is broken (bad fd, unsupported operation):
    /// retrying can never succeed, so the accept loop must stop.
    Fatal,
}

/// Classify an `accept` error. Transient kinds are resource exhaustion
/// (`EMFILE`/`ENFILE`/`ENOMEM`/`ENOBUFS`), interruption, and peers that
/// reset or aborted during the handshake (`ECONNABORTED`/`ECONNRESET`);
/// everything else — notably `EBADF`/`EINVAL`/`ENOTSOCK` — means the
/// listening socket itself is gone and the loop should surface the error.
pub(crate) fn classify_accept_error(e: &std::io::Error) -> AcceptClass {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::Interrupted
        | ErrorKind::WouldBlock
        | ErrorKind::ConnectionAborted
        | ErrorKind::ConnectionReset
        | ErrorKind::OutOfMemory => AcceptClass::Transient,
        _ => match e.raw_os_error() {
            // ENOMEM, ENFILE, EMFILE, ENOBUFS: the fd/memory pressure
            // cases ErrorKind does not (or did not historically) map.
            Some(12 | 23 | 24 | 105) => AcceptClass::Transient,
            _ => AcceptClass::Fatal,
        },
    }
}

/// The response line sent (best-effort) to a connection rejected by the
/// `OOCQ_MAX_CONNS` cap before it is closed.
pub(crate) fn busy_line(max_conns: usize) -> String {
    render_response(
        0,
        &Err(format!(
            "busy: connection limit ({max_conns}) reached; try again later"
        )),
        None,
    )
}

/// The thread-per-connection TCP accept loop: one [`serve`] loop (and so
/// one worker pool) per connection, a concurrent-connection cap answered
/// with `err busy`, and accept-error classification with exponential
/// backoff that resets after a successful accept. It is the only TCP path
/// off Linux, and the reference the reactor is checked against on Linux
/// (`tests/reactor.rs`, B11). Returns when `stop` is set (and every
/// connection thread has finished) or on a fatal accept error.
pub fn accept_loop(
    listener: &std::net::TcpListener,
    engine: &ServiceEngine,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let live = AtomicUsize::new(0);
    let max_conns = engine.max_conns();
    let base_backoff = std::time::Duration::from_millis(10);
    let mut backoff = base_backoff;
    let mut result = Ok(());
    std::thread::scope(|scope| {
        while !stop.load(SeqCst) {
            let (stream, peer) = match listener.accept() {
                Ok(conn) => {
                    backoff = base_backoff;
                    conn
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    continue;
                }
                Err(e) => match classify_accept_error(&e) {
                    AcceptClass::Transient => {
                        eprintln!("oocq-serve: accept failed: {e}; retrying in {backoff:?}");
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(std::time::Duration::from_secs(1));
                        continue;
                    }
                    AcceptClass::Fatal => {
                        eprintln!("oocq-serve: accept failed fatally: {e}");
                        result = Err(e);
                        break;
                    }
                },
            };
            if live.load(SeqCst) >= max_conns {
                let mut stream = stream;
                let _ = stream.write_all(busy_line(max_conns).as_bytes());
                let _ = stream.write_all(b"\n");
                continue;
            }
            live.fetch_add(1, SeqCst);
            let live = &live;
            scope.spawn(move || {
                let reader = std::io::BufReader::new(match stream.try_clone() {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("oocq-serve: {peer}: {e}");
                        live.fetch_sub(1, SeqCst);
                        return;
                    }
                });
                if let Err(e) = serve(reader, stream, engine) {
                    eprintln!("oocq-serve: {peer}: {e}");
                }
                live.fetch_sub(1, SeqCst);
            });
        }
    });
    result
}

/// Entry point of the `oocq-serve` binary: serve stdin/stdout, or — when
/// `OOCQ_LISTEN=<addr:port>` is set — accept TCP connections over a shared
/// engine (and shared cache): through the event-driven reactor on Linux,
/// through the thread-per-connection [`accept_loop`] elsewhere.
pub fn daemon_main() -> std::io::Result<()> {
    let engine = Arc::new(ServiceEngine::from_env());
    match std::env::var("OOCQ_LISTEN") {
        Ok(addr) if !addr.trim().is_empty() => {
            let listener = std::net::TcpListener::bind(addr.trim())?;
            eprintln!(
                "oocq-serve listening on {} ({}, {} worker threads, max {} connections)",
                listener.local_addr()?,
                if cfg!(target_os = "linux") {
                    "reactor"
                } else {
                    "thread-per-connection"
                },
                engine.pool_threads(),
                engine.max_conns(),
            );
            let stop = AtomicBool::new(false);
            #[cfg(target_os = "linux")]
            return crate::reactor::run(&listener, &engine, &stop);
            #[cfg(not(target_os = "linux"))]
            return accept_loop(&listener, &engine, &stop);
        }
        _ => serve(std::io::stdin().lock(), std::io::stdout(), &engine),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CanonicalDecisionCache;
    use oocq_core::EngineConfig;

    fn run(engine: &ServiceEngine, input: &str) -> String {
        let mut out = Vec::new();
        serve(input.as_bytes(), &mut out, engine).unwrap();
        String::from_utf8(out).unwrap()
    }

    fn engine(threads: usize) -> ServiceEngine {
        ServiceEngine::with_cache(
            EngineConfig::with_threads(threads),
            Some(Arc::new(CanonicalDecisionCache::new(256))),
        )
    }

    const SESSION: &str = "stats off\n\
                           schema s class C {}\n\
                           query s Q { x | x in C }\n\
                           query s R { x | exists y: x in C & y in C & x != y }\n";

    #[test]
    fn responses_come_back_in_request_order() {
        for threads in [1, 8] {
            let e = engine(threads);
            let mut input = SESSION.to_owned();
            for _ in 0..12 {
                input.push_str("contains s R Q\ncontains s Q R\nminimize s R\n");
            }
            input.push_str("quit\n");
            let out = run(&e, &input);
            let seqs: Vec<u64> = out
                .lines()
                .map(|l| {
                    let end = l.find(']').unwrap();
                    l[1..end].parse().unwrap()
                })
                .collect();
            let expected: Vec<u64> = (0..seqs.len() as u64).collect();
            assert_eq!(seqs, expected, "{threads} threads: out of order");
            assert!(out.ends_with(&format!("[{}] ok bye\n", seqs.len() - 1)));
        }
    }

    #[test]
    fn output_is_identical_across_thread_counts_with_stats_off() {
        let mut input = SESSION.to_owned();
        input.push_str(
            "contains s Q R\nequiv s Q Q\nsatisfiable s R\nexpand s R\nminimize s R\n\
             explain s Q R\nquit\n",
        );
        let serial = run(&engine(1), &input);
        let pooled = run(&engine(8), &input);
        assert_eq!(serial, pooled);
        assert!(serial.contains("ok holds"));
    }

    #[test]
    fn parse_and_session_errors_are_responses_not_crashes() {
        let e = engine(2);
        let out = run(&e, "stats off\nfrobnicate\ncontains ghost A B\nping\n");
        assert!(out.contains("[1] err unknown command `frobnicate`"));
        assert!(out.contains("[2] err unknown session `ghost`"));
        assert!(out.contains("[3] ok pong"));
    }

    #[test]
    fn stats_suffix_present_by_default_and_toggleable() {
        let e = engine(1);
        let out = run(
            &e,
            "schema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q\n\
             stats off\ncontains s Q Q\nquit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(" # cached=0 decided=0"), "{:?}", lines[0]);
        assert!(lines[2].contains("ok holds # cached="), "{:?}", lines[2]);
        assert!(lines[2].contains("threads=1"));
        assert!(!lines[4].contains('#'), "{:?}", lines[4]);
        assert_eq!(lines[4], "[4] ok holds");
    }

    #[test]
    fn definitions_apply_to_later_requests_even_with_a_busy_pool() {
        let e = engine(8);
        let out = run(
            &e,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\n\
             contains s Q Q\nschema s class D {}\nquery s P { x | x in D }\n\
             minimize s P\nquit\n",
        );
        assert!(out.contains("ok holds"));
        assert!(out.contains("ok { x | x in D }"));
    }

    /// `stats show` on the blocking path reports the connection's live
    /// decision backlog (the coalescing counters are legitimately zero:
    /// there is no singleflight table without the reactor). The engine's
    /// test-only `__slow__` latency hook holds the dispatched decision in
    /// flight for a full second, so the inline `stats show` answer
    /// deterministically sees backlog=1.
    #[test]
    fn stats_show_reports_the_live_decision_backlog() {
        let e = engine(2);
        let out = run(
            &e,
            "stats off\nschema s class T1 {}\nquery s __slow__ { x | x in T1 }\n\
             contains s __slow__ __slow__\nstats show\nquit\n",
        );
        let show = out
            .lines()
            .find(|l| l.starts_with("[4]"))
            .unwrap_or_else(|| panic!("no stats line in {out}"));
        assert!(show.contains("conn: backlog=1"), "{show}");
        assert!(show.contains("coalesce: leaders=0"), "{show}");
        assert!(out.contains("[3] ok holds"), "{out}");
    }

    #[test]
    fn eof_without_quit_drains_cleanly() {
        let e = engine(4);
        let out = run(
            &e,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q\n",
        );
        assert!(out.ends_with("[3] ok holds\n"));
    }

    /// A session whose `contains s Big R` walks 2^12 membership branches
    /// before concluding — enough work for a small deadline or `limit=` to
    /// trip mid-run (see the matching construction in engine.rs tests; the
    /// inequality chain keeps the cache's canonical labeling cheap).
    fn explosion_program(tail: &str) -> String {
        let vars: Vec<String> = (1..=12).map(|i| format!("x{i}")).collect();
        let chain: String = vars
            .windows(2)
            .map(|w| format!(" & {} != {}", w[0], w[1]))
            .collect();
        let big = format!(
            "{{ x0 | exists {}, z, y: x0 in T1{}{chain} & z in T1 & y in T2 & x0 in y.A & z not in y.A }}",
            vars.join(", "),
            vars.iter()
                .map(|v| format!(" & {v} in T1"))
                .collect::<String>(),
        );
        format!(
            "stats off\n\
             schema s class T1 {{}} class T2 {{ A: {{T1}}; }}\n\
             query s Big {big}\n\
             query s R {{ x | exists u, y: x in T1 & u in T1 & y in T2 & u not in y.A }}\n\
             {tail}"
        )
    }

    #[test]
    fn a_panicking_request_is_isolated_to_its_own_response() {
        let e = engine(2);
        let out = run(
            &e,
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\n\
             contains s __panic__ Q\ncontains s Q Q\nping\nquit\n",
        );
        assert!(
            out.contains("[3] err internal: worker panicked executing this request"),
            "{out}"
        );
        assert!(out.contains("[4] ok holds"), "{out}");
        assert!(out.contains("[5] ok pong"), "{out}");
        assert!(out.ends_with("[6] ok bye\n"), "{out}");
    }

    #[test]
    fn a_deadline_timeout_leaves_the_connection_usable() {
        let e = engine(2).with_deadline(Some(std::time::Duration::from_millis(40)));
        let out = run(
            &e,
            &explosion_program("contains s Big R\nping\ncontains s R R\nquit\n"),
        );
        assert!(out.contains("[4] err timeout"), "{out}");
        assert!(out.contains("[5] ok pong"), "{out}");
        assert!(out.contains("[6] ok holds"), "{out}");
        assert!(out.ends_with("[7] ok bye\n"), "{out}");
    }

    #[test]
    fn a_limit_option_timeout_leaves_the_connection_usable() {
        let e = engine(2);
        let out = run(
            &e,
            &explosion_program("limit=50 contains s Big R\ncontains s R R\nquit\n"),
        );
        assert!(out.contains("[4] err timeout"), "{out}");
        assert!(out.contains("[5] ok holds"), "{out}");
        assert!(out.ends_with("[6] ok bye\n"), "{out}");
    }

    #[test]
    fn a_tiny_queue_bound_still_answers_a_large_piped_program_in_order() {
        let e = engine(2).with_queue_bound(Some(2));
        let mut input = SESSION.to_owned();
        for _ in 0..50 {
            input.push_str("contains s Q R\ncontains s R Q\n");
        }
        input.push_str("quit\n");
        let out = run(&e, &input);
        let seqs: Vec<u64> = out
            .lines()
            .map(|l| l[1..l.find(']').unwrap()].parse().unwrap())
            .collect();
        let expected: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, expected);
        assert!(
            out.ends_with(&format!("[{}] ok bye\n", seqs.len() - 1)),
            "{out}"
        );
    }

    #[test]
    fn a_mid_stream_read_error_gets_a_final_err_response() {
        /// Yields its buffered bytes, then fails instead of reporting EOF.
        struct FailingReader(std::io::Cursor<Vec<u8>>);
        impl std::io::Read for FailingReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.read(buf)? {
                    0 => Err(std::io::Error::new(
                        std::io::ErrorKind::ConnectionReset,
                        "peer vanished",
                    )),
                    n => Ok(n),
                }
            }
        }
        let reader = std::io::BufReader::new(FailingReader(std::io::Cursor::new(
            b"stats off\nping\n".to_vec(),
        )));
        let mut out = Vec::new();
        serve(reader, &mut out, &engine(1)).unwrap();
        let out = String::from_utf8(out).unwrap();
        assert!(out.contains("[1] ok pong"), "{out}");
        assert!(
            out.ends_with("[2] err read error: peer vanished; closing connection\n"),
            "{out}"
        );
    }
}
