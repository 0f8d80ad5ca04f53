//! The per-connection protocol core shared by both serving loops.
//!
//! [`crate::serve`] (blocking, one connection per call) and
//! [`crate::reactor`] (nonblocking, many connections per thread) differ
//! only in how bytes arrive and leave. Everything a client can observe in
//! between is written once, here:
//!
//! * **Line framing** ([`LineFramer`]): input splits on `\n`, a trailing
//!   `\r` is stripped, invalid UTF-8 decodes lossily, and blank lines are
//!   skipped without a sequence number. A line longer than [`IN_CAP`]
//!   bytes is answered `err line too long` however its bytes were chunked,
//!   and discarded through its newline. An unterminated final line at EOF
//!   is a request. A read error becomes the connection's final `err`
//!   response, after the complete lines already buffered.
//! * **Sequencing** ([`Requests`], [`Responses`]): every request line gets
//!   the next `[seq]` in input order, and responses leave strictly in
//!   sequence order however the worker pool interleaves. A connection's
//!   decision backlog is the number of seqs still without a response.
//! * **Inline verbs** ([`Requests::handle`]): `ping`, `stats`, `stats
//!   show`, `quit` and the `schema`/`query`/`constraint` definitions are
//!   answered at parse time, so session state changes in input order;
//!   decision requests capture their session snapshot at parse time and
//!   go to the worker pool as a [`Job`].
//! * **Job running** ([`run_job`]): each decision runs under
//!   `catch_unwind`, so a panic becomes that request's own `err internal`
//!   response instead of a dead worker and a stalled reorder buffer.

use crate::engine::{split_limit, ServiceEngine, Session};
use crate::protocol::{parse_request, render_response, Request, RequestStats};
use oocq_core::Budget;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// The longest request line, in bytes before its newline.
pub const IN_CAP: usize = 1 << 20;

/// One unit of framed input.
pub(crate) enum Frame {
    /// A request line, newline (and a trailing `\r`) stripped.
    Line(String),
    /// A line longer than [`IN_CAP`]; its bytes are discarded.
    TooLong,
    /// The stream failed; always the last frame.
    ReadError(String),
}

/// Splits a byte stream into request lines (see the module docs for the
/// rules). The transport pushes bytes in whatever chunks they arrive and
/// calls [`LineFramer::finish`] at EOF or on a read error.
pub(crate) struct LineFramer {
    buf: Vec<u8>,
    /// First byte of `buf` not yet framed.
    start: usize,
    /// `buf[start..scanned]` is known to hold no newline.
    scanned: usize,
    /// An oversized line was answered; its bytes are dropped as they
    /// arrive, through the next newline.
    discarding: bool,
    eof: bool,
    read_err: Option<String>,
}

impl LineFramer {
    pub(crate) fn new() -> LineFramer {
        LineFramer {
            buf: Vec::new(),
            start: 0,
            scanned: 0,
            discarding: false,
            eof: false,
            read_err: None,
        }
    }

    /// Append bytes read from the stream.
    pub(crate) fn push(&mut self, mut bytes: &[u8]) {
        if self.discarding {
            match bytes.iter().position(|&b| b == b'\n') {
                Some(i) => {
                    self.discarding = false;
                    bytes = &bytes[i + 1..];
                }
                None => return,
            }
        }
        if self.start == self.buf.len() {
            self.buf.clear();
        } else {
            self.buf.drain(..self.start);
        }
        self.scanned -= self.start;
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// The stream ended: cleanly (`None`) or with a read error, reported as
    /// the final frame.
    pub(crate) fn finish(&mut self, read_err: Option<String>) {
        self.eof = true;
        self.read_err = read_err;
    }

    /// Has the stream ended?
    pub(crate) fn eof(&self) -> bool {
        self.eof
    }

    /// Should the transport read more? Until EOF, and while no more than
    /// [`IN_CAP`] bytes wait unframed: one byte past the cap is what tells
    /// an oversized line from a full one.
    pub(crate) fn wants_input(&self) -> bool {
        !self.eof && self.buf.len() - self.start <= IN_CAP
    }

    /// Every frame of an ended stream has been taken.
    pub(crate) fn exhausted(&self) -> bool {
        self.eof && self.read_err.is_none() && self.start == self.buf.len()
    }

    /// The next complete frame, if any.
    pub(crate) fn next_frame(&mut self) -> Option<Frame> {
        if let Some(i) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') {
            let line_start = self.start;
            let newline = self.scanned + i;
            self.start = newline + 1;
            self.scanned = self.start;
            if newline - line_start > IN_CAP {
                return Some(Frame::TooLong);
            }
            let mut end = newline;
            if end > line_start && self.buf[end - 1] == b'\r' {
                end -= 1;
            }
            return Some(Frame::Line(
                String::from_utf8_lossy(&self.buf[line_start..end]).into_owned(),
            ));
        }
        self.scanned = self.buf.len();
        if self.buf.len() - self.start > IN_CAP {
            self.start = self.buf.len();
            self.discarding = true;
            return Some(Frame::TooLong);
        }
        if !self.eof {
            return None;
        }
        if let Some(msg) = self.read_err.take() {
            self.start = self.buf.len();
            return Some(Frame::ReadError(msg));
        }
        if self.start < self.buf.len() {
            let line = String::from_utf8_lossy(&self.buf[self.start..]).into_owned();
            self.start = self.buf.len();
            return Some(Frame::Line(line));
        }
        None
    }
}

/// A decision request on its way to the worker pool, with the session
/// snapshot it was parsed against.
pub(crate) struct Job {
    pub(crate) seq: u64,
    pub(crate) req: Request,
    pub(crate) snapshot: Option<Arc<Session>>,
    pub(crate) stats_on: bool,
}

impl Job {
    /// Run the job on its own budget and render its response.
    pub(crate) fn run(&self, engine: &ServiceEngine) -> String {
        let start = Instant::now();
        let (inner, limit) = split_limit(&self.req);
        let budget = engine.request_budget(limit);
        let (result, stats) = run_job(engine, inner, self.snapshot.as_ref(), budget, start);
        render_response(self.seq, &result, self.stats_on.then_some(&stats))
    }
}

/// What one request line became.
pub(crate) enum Action {
    /// Answered inline: `line` is the rendered response for `seq`.
    Reply { seq: u64, line: String },
    /// A decision for the worker pool.
    Decide(Job),
}

/// The request side of one connection: sequence numbers, the stats
/// toggle, `quit`, and the inline verbs.
pub(crate) struct Requests {
    next_seq: u64,
    stats_on: bool,
    quit: bool,
}

impl Requests {
    pub(crate) fn new() -> Requests {
        Requests {
            next_seq: 0,
            stats_on: true,
            quit: false,
        }
    }

    /// The seq the next request line will get.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Has the client sent `quit`? No further input is read.
    pub(crate) fn quit(&self) -> bool {
        self.quit
    }

    /// Turn one frame into its inline response or a decision job (`None`
    /// for a blank line). `stats_show` renders the `stats show` report for
    /// the request numbered by its argument: the transport knows the
    /// connection's backlog and its coalescing counters.
    pub(crate) fn handle(
        &mut self,
        engine: &ServiceEngine,
        frame: Frame,
        stats_show: impl FnOnce(u64) -> String,
    ) -> Option<Action> {
        let start = Instant::now();
        let parsed = match frame {
            Frame::Line(line) if line.trim().is_empty() => return None,
            Frame::Line(line) => parse_request(&line),
            Frame::TooLong => Err(format!(
                "line too long: request lines are capped at {IN_CAP} bytes"
            )),
            Frame::ReadError(msg) => {
                let seq = self.take_seq();
                self.quit = true;
                return Some(Action::Reply {
                    seq,
                    line: render_response(seq, &Err(msg), None),
                });
            }
        };
        let seq = self.take_seq();
        let result = match parsed {
            Err(e) => Err(e),
            Ok(req) if req.is_decision() => match engine.snapshot_for(&req) {
                Ok(snapshot) => {
                    return Some(Action::Decide(Job {
                        seq,
                        req,
                        snapshot,
                        stats_on: self.stats_on,
                    }))
                }
                Err(e) => Err(e),
            },
            Ok(Request::Ping) => Ok("pong".to_owned()),
            Ok(Request::Stats(on)) => {
                self.stats_on = on;
                Ok(format!("stats {}", if on { "on" } else { "off" }))
            }
            Ok(Request::StatsShow) => Ok(stats_show(seq)),
            Ok(Request::Quit) => {
                self.quit = true;
                Ok("bye".to_owned())
            }
            Ok(Request::DefineSchema { session, text }) => engine.define_schema(&session, &text),
            Ok(Request::DefineQuery {
                session,
                name,
                text,
            }) => engine.define_query(&session, &name, &text),
            Ok(Request::DefineConstraint { session, text }) => {
                engine.define_constraint(&session, &text)
            }
            Ok(other) => Err(format!("internal: unhandled request `{other:?}`")),
        };
        let stats = uncounted(start, engine.pool_threads());
        Some(Action::Reply {
            seq,
            line: render_response(seq, &result, self.stats_on.then_some(&stats)),
        })
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }
}

/// The response side of one connection: the `[seq]` reorder buffer.
/// Responses arrive in completion order and leave in sequence order.
pub(crate) struct Responses {
    /// The seq that leaves next.
    next_emit: u64,
    /// Completed responses waiting for `next_emit`.
    pending: HashMap<u64, String>,
}

impl Responses {
    pub(crate) fn new() -> Responses {
        Responses {
            next_emit: 0,
            pending: HashMap::new(),
        }
    }

    /// Accept `seq`'s response and hand `sink` every line that is now
    /// next in sequence order.
    pub(crate) fn emit(&mut self, seq: u64, line: String, mut sink: impl FnMut(&str)) {
        if seq != self.next_emit {
            self.pending.insert(seq, line);
            return;
        }
        sink(&line);
        self.next_emit += 1;
        while let Some(l) = self.pending.remove(&self.next_emit) {
            sink(&l);
            self.next_emit += 1;
        }
    }

    /// How many of the seqs below `next_seq` have no response yet: the
    /// connection's decisions in flight (inline answers are emitted before
    /// the next line is read).
    pub(crate) fn backlog(&self, next_seq: u64) -> usize {
        (next_seq - self.next_emit) as usize - self.pending.len()
    }

    /// Hand `sink` the responses stranded behind a seq that never
    /// arrived, in sequence order. Every seq is answered (see
    /// [`run_job`]), so this finds nothing unless a regression breaks that.
    pub(crate) fn flush_stranded(&mut self, mut sink: impl FnMut(&str)) {
        if self.pending.is_empty() {
            return;
        }
        eprintln!(
            "oocq-serve: {} response(s) stranded in reorder buffer",
            self.pending.len()
        );
        let mut stranded: Vec<(u64, String)> = self.pending.drain().collect();
        stranded.sort_unstable_by_key(|&(seq, _)| seq);
        for (_, line) in stranded {
            sink(&line);
        }
    }
}

/// The stats of an answer the engine did not compute (an inline verb, a
/// rejected line, a worker panic, a coalesced fan-out, a waiter's
/// timeout): no cache hits, no decisions, the time since `start`.
pub(crate) fn uncounted(start: Instant, threads: usize) -> RequestStats {
    RequestStats {
        cached: 0,
        decided: 0,
        wall_us: start.elapsed().as_micros() as u64,
        threads,
    }
}

/// Execute one `limit=`-stripped decision under `catch_unwind`, so a
/// panic becomes this request's own error response instead of a dead
/// worker. The engine holds no locks across execution, so unwind safety
/// is only about the panic payload, which is discarded.
pub(crate) fn run_job(
    engine: &ServiceEngine,
    req: &Request,
    snapshot: Option<&Arc<Session>>,
    budget: Budget,
    start: Instant,
) -> (Result<String, String>, RequestStats) {
    match catch_unwind(AssertUnwindSafe(|| {
        engine.execute_budgeted(req, snapshot, budget)
    })) {
        Ok(out) => out,
        Err(_) => (
            Err("internal: worker panicked executing this request".to_owned()),
            uncounted(start, engine.pool_threads()),
        ),
    }
}

/// Jobs run under `catch_unwind` and no code panics while holding a
/// connection's locks, so a poisoned one is a bug.
pub(crate) const POISONED: &str = "lock poisoned: a thread panicked while holding it";

struct QueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// The job queue in front of a worker pool, bounded so a slow pool pushes
/// back on its producer (and through it, on the client's unread input)
/// instead of buffering an unbounded backlog. Generic over the job type:
/// [`crate::serve`] queues [`Job`]s, the reactor tags them with their
/// connection.
pub(crate) struct Queue<T> {
    state: Mutex<QueueState<T>>,
    bound: usize,
    /// Signals waiting workers that a job arrived (or the queue closed).
    cond: Condvar,
    /// Signals a blocked producer that a slot freed up.
    room: Condvar,
}

impl<T> Queue<T> {
    pub(crate) fn new(bound: usize) -> Queue<T> {
        Queue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            bound: bound.max(1),
            cond: Condvar::new(),
            room: Condvar::new(),
        }
    }

    /// Blocks while the queue is full (workers always drain it, so this
    /// cannot deadlock; `close` also wakes any blocked pusher).
    pub(crate) fn push(&self, job: T) {
        let mut st = self.state.lock().expect(POISONED);
        while st.jobs.len() >= self.bound && !st.closed {
            st = self.room.wait(st).expect(POISONED);
        }
        st.jobs.push_back(job);
        self.cond.notify_one();
    }

    /// Nonblocking push for the reactor (which must never sleep on a lock):
    /// a full queue hands the job back so the caller can park it.
    pub(crate) fn try_push(&self, job: T) -> Result<(), T> {
        let mut st = self.state.lock().expect(POISONED);
        if st.jobs.len() >= self.bound && !st.closed {
            return Err(job);
        }
        st.jobs.push_back(job);
        self.cond.notify_one();
        Ok(())
    }

    /// Close the queue; workers drain remaining jobs and exit.
    pub(crate) fn close(&self) {
        self.state.lock().expect(POISONED).closed = true;
        self.cond.notify_all();
        self.room.notify_all();
    }

    pub(crate) fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().expect(POISONED);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                self.room.notify_one();
                return Some(job);
            }
            if st.closed {
                return None;
            }
            st = self.cond.wait(st).expect(POISONED);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed `chunks` then EOF; collect every frame as text.
    fn frames(chunks: &[&[u8]], read_err: Option<&str>) -> Vec<String> {
        let mut f = LineFramer::new();
        let mut out = Vec::new();
        let mut take = |f: &mut LineFramer| {
            while let Some(fr) = f.next_frame() {
                out.push(match fr {
                    Frame::Line(l) => format!("line {l:?}"),
                    Frame::TooLong => "too long".to_owned(),
                    Frame::ReadError(e) => format!("error {e}"),
                });
            }
        };
        for c in chunks {
            f.push(c);
            take(&mut f);
        }
        f.finish(read_err.map(str::to_owned));
        take(&mut f);
        assert!(read_err.is_some() || f.exhausted());
        out
    }

    #[test]
    fn framing_splits_strips_cr_and_keeps_an_unterminated_tail() {
        assert_eq!(
            frames(&[b"ping\r\nst", b"ats off\n\xff\xfe\nquit"], None),
            [
                "line \"ping\"",
                "line \"stats off\"",
                "line \"\u{fffd}\u{fffd}\"",
                "line \"quit\""
            ]
        );
    }

    #[test]
    fn the_line_cap_holds_however_the_bytes_are_chunked() {
        let mut long = vec![b'x'; IN_CAP + 10];
        long.extend_from_slice(b"\nping\n");
        let whole = frames(&[&long], None);
        let pieces: Vec<&[u8]> = long.chunks(4096).collect();
        let chunked = frames(&pieces, None);
        assert_eq!(whole, ["too long", "line \"ping\""]);
        assert_eq!(chunked, whole);
        // A line of exactly the cap is a request.
        let mut full = vec![b'z'; IN_CAP];
        full.push(b'\n');
        assert_eq!(
            frames(&[&full], None),
            [format!("line {:?}", "z".repeat(IN_CAP))]
        );
    }

    #[test]
    fn an_oversized_unterminated_line_is_answered_once_then_dropped() {
        let big = vec![b'y'; 2 * IN_CAP];
        let pieces: Vec<&[u8]> = big.chunks(16 * 1024).collect();
        assert_eq!(frames(&pieces, None), ["too long"]);
    }

    #[test]
    fn a_read_error_follows_the_complete_lines_and_drops_the_partial_one() {
        assert_eq!(
            frames(&[b"ping\npart"], Some("read error: boom")),
            ["line \"ping\"", "error read error: boom"]
        );
    }

    #[test]
    fn the_reorder_buffer_emits_in_sequence_and_counts_the_backlog() {
        let mut r = Responses::new();
        let mut out = Vec::new();
        r.emit(1, "b".into(), |l| out.push(l.to_owned()));
        assert!(out.is_empty());
        assert_eq!(r.backlog(3), 2);
        r.emit(0, "a".into(), |l| out.push(l.to_owned()));
        assert_eq!(out, ["a", "b"]);
        assert_eq!(r.backlog(3), 1);
    }

    #[test]
    fn finish_flushes_stranded_responses_instead_of_dropping_them() {
        let mut r = Responses::new();
        let mut out = Vec::new();
        // Seq 0 never arrives, so seq 1 is stuck in the reorder buffer.
        r.emit(1, "[1] ok late".to_owned(), |l| out.push(l.to_owned()));
        r.flush_stranded(|l| out.push(l.to_owned()));
        assert_eq!(out, ["[1] ok late"]);
    }
}
