//! The event-driven TCP serving reactor (Linux).
//!
//! [`crate::server::accept_loop`] spends one OS thread — and one whole
//! worker pool — per peer, so ten thousand mostly idle connections cost
//! ten thousand blocked threads. [`run`] replaces it on Linux with a
//! single event loop: every socket is nonblocking and registered with the
//! level-triggered epoll [`crate::poll::Poller`], and *all* connections
//! share one `OOCQ_THREADS` worker pool behind one bounded job queue.
//!
//! Framing, sequencing, the inline verbs and the job runner are the shared
//! connection core of [`crate::conn`], so a connection's transcript is
//! byte-identical to the blocking [`crate::serve`] loop on the same bytes.
//! What stays here is the transport: the nonblocking socket, the poller
//! and each connection's interest set, a job the full queue handed back,
//! and singleflight coalescing.
//!
//! ## Backpressure and fault isolation
//!
//! The reactor thread never blocks on anything but the poller: jobs are
//! handed to the pool with a nonblocking `try_push`, and a full queue
//! parks the job on its connection and masks the connection's read
//! interest until completions drain (the client's unread input is the
//! buffer, exactly like the blocking path). Per-connection output is
//! likewise bounded: a peer that stops reading has its request parsing
//! paused once its write buffer fills. Accept errors are classified
//! transient/fatal with exponential backoff that resets on success, and
//! connections beyond `OOCQ_MAX_CONNS` are answered `err busy` and closed
//! instead of accumulating.
//!
//! ## Singleflight coalescing
//!
//! Workers route coalescable decisions (`contains`/`equiv`/`minimize`
//! without a `limit=` option) through a [`Singleflight`] table keyed by
//! the same canonical identity the decision cache uses. The first request
//! for a key computes; concurrent identical requests park as waiters —
//! occupying no worker thread — and the verdict fans out to all of them
//! on completion. Budget semantics stay per-waiter: requests with an
//! explicit `limit=` bypass coalescing entirely (work accounting is
//! request-local), and a parked waiter whose own wall-clock deadline
//! expires is answered `err timeout` by the reactor without cancelling
//! the leader.

use crate::conn::{run_job, uncounted, Action, Job, LineFramer, Queue, Requests, Responses};
use crate::engine::{split_limit, ServiceEngine};
use crate::flight::{FlightKey, JoinOutcome, Singleflight};
use crate::poll::{waker, PollEvent, Poller, WakeReceiver, Waker};
use crate::protocol::render_response;
use crate::server::{busy_line, classify_accept_error, AcceptClass};
use std::collections::{HashMap, HashSet};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER: u64 = 0;
/// Token of the worker→reactor wakeup channel.
const WAKER: u64 = 1;
/// First token handed to an accepted connection. Tokens are never reused,
/// so a late completion for a closed connection cannot reach a new one.
const FIRST_CONN: u64 = 2;

/// Output buffered per connection before request parsing pauses (a peer
/// that stops reading must not grow our heap).
const OUT_CAP: usize = 1 << 20;
/// Idle poll tick: the upper bound on how stale the `stop` flag, a
/// parked-waiter deadline, or a listener backoff expiry can get.
const IDLE_TICK: Duration = Duration::from_millis(200);
/// Initial accept backoff after a transient accept error.
const BASE_BACKOFF: Duration = Duration::from_millis(10);

/// One decision request in flight from a connection to the worker pool.
struct ReactorJob {
    conn: u64,
    job: Job,
}

/// A request parked behind a singleflight leader.
struct Waiter {
    conn: u64,
    seq: u64,
    stats_on: bool,
    start: Instant,
}

/// A completion (or parking notice) posted by a worker to the reactor.
enum Note {
    /// The response line for `(conn, seq)` is ready.
    Done { conn: u64, seq: u64, line: String },
    /// `(conn, seq)` joined an in-flight computation as a waiter; the
    /// reactor must answer `err timeout` itself if `deadline` passes
    /// before the leader's fan-out arrives.
    Parked {
        conn: u64,
        seq: u64,
        key: FlightKey,
        deadline: Instant,
    },
}

/// The worker→reactor mailbox: posting wakes the blocked poller.
struct Board {
    notes: Mutex<Vec<Note>>,
    waker: Waker,
}

impl Board {
    fn post(&self, note: Note) {
        self.notes.lock().unwrap().push(note);
        self.waker.wake();
    }

    fn drain(&self) -> Vec<Note> {
        std::mem::take(&mut *self.notes.lock().unwrap())
    }
}

/// One connection: the shared protocol core plus its socket state.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    requests: Requests,
    responses: Responses,
    /// Response bytes not yet written, starting at `out_pos`.
    outbuf: Vec<u8>,
    out_pos: usize,
    /// A job the full worker queue handed back; retried when completions
    /// drain. While set, the connection parses no further input.
    stalled: Option<ReactorJob>,
    /// Interest set currently registered with the poller.
    want_read: bool,
    want_write: bool,
    /// The peer is unreachable (write error): discard output, drain
    /// in-flight work, close.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            framer: LineFramer::new(),
            requests: Requests::new(),
            responses: Responses::new(),
            outbuf: Vec::new(),
            out_pos: 0,
            stalled: None,
            want_read: true,
            want_write: false,
            dead: false,
        }
    }

    /// Hand a completed response to the reorder buffer; everything ready
    /// in sequence order moves to the output buffer.
    fn emit(&mut self, seq: u64, line: String) {
        let (outbuf, dead) = (&mut self.outbuf, self.dead);
        self.responses.emit(seq, line, |l| {
            if !dead {
                outbuf.extend_from_slice(l.as_bytes());
                outbuf.push(b'\n');
            }
        });
    }

    /// Decision requests dispatched (or stalled) but not yet answered.
    fn inflight(&self) -> usize {
        self.responses.backlog(self.requests.next_seq())
    }

    /// Will this connection read more bytes from its socket?
    fn reading(&self) -> bool {
        self.reading_frames() && !self.framer.eof()
    }

    /// Will this connection frame more request lines?
    fn reading_frames(&self) -> bool {
        !self.dead && !self.requests.quit()
    }

    /// Should this connection stop parsing (and reading) input for now?
    fn paused(&self, per_conn_cap: usize) -> bool {
        self.stalled.is_some()
            || self.inflight() >= per_conn_cap
            || self.outbuf.len() - self.out_pos >= OUT_CAP
    }

    /// Write as much buffered output as the socket accepts.
    fn flush(&mut self) {
        while self.out_pos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.out_pos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.out_pos >= self.outbuf.len() {
            self.outbuf.clear();
            self.out_pos = 0;
        }
    }

    /// Is this connection fully drained and ready to close?
    fn finished(&self) -> bool {
        if self.inflight() > 0 {
            return false;
        }
        if self.dead {
            return true;
        }
        (self.requests.quit() || self.framer.exhausted()) && self.out_pos >= self.outbuf.len()
    }
}

/// Run the reactor on `listener` until `stop` is set or a fatal listener
/// error occurs. Blocks the calling thread (it becomes the event loop) and
/// owns a scoped `OOCQ_THREADS` worker pool shared by every connection.
pub fn run(
    listener: &TcpListener,
    engine: &ServiceEngine,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let (wake_tx, wake_rx) = waker()?;
    poller.register(listener.as_raw_fd(), LISTENER, true, false)?;
    poller.register(wake_rx.raw_fd(), WAKER, true, false)?;
    let queue: Queue<ReactorJob> = Queue::new(engine.queue_bound());
    let flights: Singleflight<Waiter> = Singleflight::new();
    let board = Board {
        notes: Mutex::new(Vec::new()),
        waker: wake_tx,
    };
    let mut result = Ok(());
    std::thread::scope(|scope| {
        for _ in 0..engine.pool_threads() {
            scope.spawn(|| worker_loop(engine, &queue, &flights, &board));
        }
        let mut ev = EventLoop {
            engine,
            listener,
            poller: &mut poller,
            wake_rx: &wake_rx,
            queue: &queue,
            flights: &flights,
            board: &board,
            conns: HashMap::new(),
            parked: HashMap::new(),
            next_token: FIRST_CONN,
            per_conn_cap: engine.queue_bound(),
            listener_paused: false,
            listener_resume: None,
            accept_backoff: BASE_BACKOFF,
        };
        result = ev.run(stop);
        queue.close();
    });
    result
}

/// A worker thread: pop jobs, coalesce coalescable ones through the
/// singleflight table, post completions to the reactor's board.
fn worker_loop(
    engine: &ServiceEngine,
    queue: &Queue<ReactorJob>,
    flights: &Singleflight<Waiter>,
    board: &Board,
) {
    let threads = engine.pool_threads();
    while let Some(ReactorJob { conn, job }) = queue.pop() {
        let start = Instant::now();
        let seq = job.seq;
        let (inner, limit) = split_limit(&job.req);
        let budget = engine.request_budget(limit);
        // `limit=` requests never coalesce: their work accounting is
        // request-local by definition, and the engine must trip *their*
        // budget, not share a leader's.
        let key = if engine.coalescing() && limit.is_none() {
            match engine.flight_key(inner, job.snapshot.as_ref(), &budget) {
                Ok(key) => key,
                Err(msg) => {
                    // The canonical labeling itself tripped the budget.
                    let stats = uncounted(start, threads);
                    let line = render_response(seq, &Err(msg), job.stats_on.then_some(&stats));
                    board.post(Note::Done { conn, seq, line });
                    continue;
                }
            }
        } else {
            None
        };
        let Some(key) = key else {
            let (result, stats) = run_job(engine, inner, job.snapshot.as_ref(), budget, start);
            let line = render_response(seq, &result, job.stats_on.then_some(&stats));
            board.post(Note::Done { conn, seq, line });
            continue;
        };
        match flights.join(&key, || Waiter {
            conn,
            seq,
            stats_on: job.stats_on,
            start,
        }) {
            JoinOutcome::Joined => {
                // Parked: no worker thread is held. The reactor only needs
                // to hear about it when a deadline could expire first.
                if let Some(d) = engine.deadline() {
                    board.post(Note::Parked {
                        conn,
                        seq,
                        key,
                        deadline: start + d,
                    });
                }
            }
            JoinOutcome::Lead => {
                let (result, stats) = run_job(engine, inner, job.snapshot.as_ref(), budget, start);
                // Collect waiters *before* posting anything: everyone
                // parked behind this flight is answered from one verdict.
                for w in flights.complete(&key) {
                    let stats = uncounted(w.start, threads);
                    let line = render_response(w.seq, &result, w.stats_on.then_some(&stats));
                    board.post(Note::Done {
                        conn: w.conn,
                        seq: w.seq,
                        line,
                    });
                }
                let line = render_response(seq, &result, job.stats_on.then_some(&stats));
                board.post(Note::Done { conn, seq, line });
            }
        }
    }
}

struct EventLoop<'a> {
    engine: &'a ServiceEngine,
    listener: &'a TcpListener,
    poller: &'a mut Poller,
    wake_rx: &'a WakeReceiver,
    queue: &'a Queue<ReactorJob>,
    flights: &'a Singleflight<Waiter>,
    board: &'a Board,
    conns: HashMap<u64, Conn>,
    /// Waiters parked behind a leader whose deadline the reactor must
    /// enforce, keyed `(conn, seq)`.
    parked: HashMap<(u64, u64), (FlightKey, Instant)>,
    next_token: u64,
    /// Max decision requests in flight per connection before its parsing
    /// pauses (reuses the queue bound: one connection can at most fill the
    /// worker queue once over).
    per_conn_cap: usize,
    listener_paused: bool,
    listener_resume: Option<Instant>,
    accept_backoff: Duration,
}

impl EventLoop<'_> {
    fn run(&mut self, stop: &AtomicBool) -> std::io::Result<()> {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut dirty: HashSet<u64> = HashSet::new();
        while !stop.load(SeqCst) {
            events.clear();
            let timeout = self.next_timeout();
            self.poller.wait(&mut events, Some(timeout))?;
            let mut accept_now = false;
            for ev in &events {
                match ev.token {
                    LISTENER => accept_now = true,
                    WAKER => self.wake_rx.drain(),
                    token => {
                        dirty.insert(token);
                    }
                }
            }
            // Drain completions every pass (not only on a waker event: the
            // wake byte may have coalesced into a previous drain).
            if self.apply_notes(&mut dirty) {
                // Queue slots freed: every stalled connection may proceed.
                dirty.extend(
                    self.conns
                        .iter()
                        .filter(|(_, c)| c.paused(self.per_conn_cap))
                        .map(|(&t, _)| t),
                );
            }
            self.maybe_resume_listener();
            if accept_now {
                self.accept_burst(&mut dirty)?;
            }
            self.fire_deadlines(&mut dirty);
            for token in dirty.drain() {
                self.pump(token);
            }
        }
        Ok(())
    }

    /// How long the poller may sleep: until the next parked-waiter
    /// deadline or listener-backoff expiry, capped by the idle tick.
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut t = IDLE_TICK;
        for (_, deadline) in self.parked.values() {
            t = t.min(deadline.saturating_duration_since(now));
        }
        if let Some(resume) = self.listener_resume {
            t = t.min(resume.saturating_duration_since(now));
        }
        t
    }

    /// Apply worker completions; returns whether any note arrived.
    fn apply_notes(&mut self, dirty: &mut HashSet<u64>) -> bool {
        let notes = self.board.drain();
        let any = !notes.is_empty();
        for note in notes {
            match note {
                Note::Done { conn, seq, line } => {
                    self.parked.remove(&(conn, seq));
                    if let Some(c) = self.conns.get_mut(&conn) {
                        c.emit(seq, line);
                        dirty.insert(conn);
                    }
                }
                Note::Parked {
                    conn,
                    seq,
                    key,
                    deadline,
                } => {
                    // A fan-out racing ahead of this notice already
                    // answered the seq; the stale entry is harmless — its
                    // expiry finds no waiter to remove and does nothing.
                    if self.conns.contains_key(&conn) {
                        self.parked.insert((conn, seq), (key, deadline));
                    }
                }
            }
        }
        any
    }

    /// Answer `err timeout` for parked waiters whose own deadline passed
    /// while their leader is still computing. The flight table arbitrates
    /// the race with fan-out: whoever removes the waiter first answers it.
    fn fire_deadlines(&mut self, dirty: &mut HashSet<u64>) {
        if self.parked.is_empty() {
            return;
        }
        let now = Instant::now();
        let expired: Vec<((u64, u64), FlightKey)> = self
            .parked
            .iter()
            .filter(|(_, (_, deadline))| *deadline <= now)
            .map(|(&at, (key, _))| (at, key.clone()))
            .collect();
        for ((conn, seq), key) in expired {
            self.parked.remove(&(conn, seq));
            let Some(w) = self
                .flights
                .remove_waiter(&key, |w| w.conn == conn && w.seq == seq)
            else {
                continue; // the leader's fan-out owns this response
            };
            if let Some(c) = self.conns.get_mut(&conn) {
                let msg =
                    "timeout: request deadline expired awaiting a coalesced result".to_owned();
                let stats = uncounted(w.start, self.engine.pool_threads());
                c.emit(
                    seq,
                    render_response(seq, &Err(msg), w.stats_on.then_some(&stats)),
                );
                dirty.insert(conn);
            }
        }
    }

    fn maybe_resume_listener(&mut self) {
        if !self.listener_paused {
            return;
        }
        if let Some(resume) = self.listener_resume {
            if Instant::now() >= resume
                && self
                    .poller
                    .register(self.listener.as_raw_fd(), LISTENER, true, false)
                    .is_ok()
            {
                self.listener_paused = false;
                self.listener_resume = None;
            }
        }
    }

    /// Accept everything pending. Over-cap connections get a best-effort
    /// `err busy` line and are dropped; transient accept errors pause the
    /// listener with exponential backoff (reset on success); fatal ones
    /// abort the reactor.
    fn accept_burst(&mut self, dirty: &mut HashSet<u64>) -> std::io::Result<()> {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_backoff = BASE_BACKOFF;
                    if self.conns.len() >= self.engine.max_conns() {
                        // The accepted socket is still blocking (accept
                        // does not inherit O_NONBLOCK); a short write to a
                        // fresh socket buffer cannot stall the loop.
                        let mut stream = stream;
                        let _ = stream.write_all(busy_line(self.engine.max_conns()).as_bytes());
                        let _ = stream.write_all(b"\n");
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(token, Conn::new(stream));
                    dirty.insert(token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => match classify_accept_error(&e) {
                    AcceptClass::Transient => {
                        eprintln!(
                            "oocq-serve: accept failed: {e}; pausing accepts for {:?}",
                            self.accept_backoff
                        );
                        let _ = self.poller.deregister(self.listener.as_raw_fd());
                        self.listener_paused = true;
                        self.listener_resume = Some(Instant::now() + self.accept_backoff);
                        self.accept_backoff = (self.accept_backoff * 2).min(Duration::from_secs(1));
                        break;
                    }
                    AcceptClass::Fatal => {
                        eprintln!("oocq-serve: accept failed fatally: {e}");
                        return Err(e);
                    }
                },
            }
        }
        Ok(())
    }

    /// Advance one connection's state machine: retry a stalled job, read,
    /// parse and dispatch complete lines, flush output, re-register
    /// interest — or close it once fully drained.
    fn pump(&mut self, token: u64) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.dead {
            // In-flight work still drains through Done notes; the stalled
            // job never reached the queue, so its seq is settled here (a
            // dead connection's output is discarded anyway).
            if let Some(stalled) = conn.stalled.take() {
                conn.emit(stalled.job.seq, String::new());
            }
        } else {
            if let Some(job) = conn.stalled.take() {
                if let Err(job) = self.queue.try_push(job) {
                    conn.stalled = Some(job);
                }
            }
            self.read_some(&mut conn);
            self.process_lines(token, &mut conn);
            conn.flush();
        }
        if conn.finished() {
            self.close_conn(token, conn);
            return;
        }
        // A failed interest update marks the connection dead, which may
        // make it finished (nothing left to drain) — re-check rather than
        // parking it with a desynced interest set and no wakeup path.
        self.update_interest(token, &mut conn);
        if conn.finished() {
            self.close_conn(token, conn);
            return;
        }
        self.conns.insert(token, conn);
    }

    /// Deregister and drop a drained connection (dropping the [`Conn`]
    /// closes the socket), discarding any parked-deadline entries for it.
    fn close_conn(&mut self, token: u64, conn: Conn) {
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.parked.retain(|&(c, _), _| c != token);
    }

    /// Nonblocking read into the connection's line framer, bounded by the
    /// framer's line cap and the pause predicate.
    fn read_some(&self, conn: &mut Conn) {
        if !conn.reading() || conn.paused(self.per_conn_cap) {
            return;
        }
        let mut buf = [0u8; 16 * 1024];
        while conn.framer.wants_input() {
            match conn.stream.read(&mut buf) {
                Ok(0) => conn.framer.finish(None),
                Ok(n) => conn.framer.push(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => conn
                    .framer
                    .finish(Some(format!("read error: {e}; closing connection"))),
            }
        }
    }

    /// Handle every framed request line through the shared core, stopping
    /// when the connection pauses: inline answers go to the reorder buffer,
    /// decisions to the shared pool (or, when its queue is full, parked on
    /// the connection).
    fn process_lines(&self, token: u64, conn: &mut Conn) {
        while conn.reading_frames() && !conn.paused(self.per_conn_cap) {
            let Some(frame) = conn.framer.next_frame() else {
                break;
            };
            let responses = &conn.responses;
            let stats_show = |seq| {
                self.engine
                    .stats_report(&self.flights.stats(), responses.backlog(seq))
            };
            match conn.requests.handle(self.engine, frame, stats_show) {
                Some(Action::Reply { seq, line }) => conn.emit(seq, line),
                Some(Action::Decide(job)) => {
                    if let Err(job) = self.queue.try_push(ReactorJob { conn: token, job }) {
                        conn.stalled = Some(job);
                    }
                }
                None => {}
            }
        }
    }

    /// Re-register the connection's interest set when it changed. Interest
    /// masking is what keeps level-triggered polling from busy-looping:
    /// a paused connection stops reporting readable, a drained one stops
    /// reporting writable.
    fn update_interest(&self, token: u64, conn: &mut Conn) {
        let want_read =
            conn.reading() && !conn.paused(self.per_conn_cap) && conn.framer.wants_input();
        let want_write = !conn.dead && conn.out_pos < conn.outbuf.len();
        if (want_read, want_write) != (conn.want_read, conn.want_write) {
            match self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want_read, want_write)
            {
                Ok(()) => {
                    conn.want_read = want_read;
                    conn.want_write = want_write;
                }
                // The registered interest set is now unknowable; treat it
                // like a peer failure: discard output, let in-flight work
                // drain through its completion notes, then close.
                Err(_) => conn.dead = true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CanonicalDecisionCache;
    use crate::conn::IN_CAP;
    use oocq_core::EngineConfig;
    use std::io::BufReader;
    use std::net::TcpStream;
    use std::sync::Arc;

    struct Harness {
        addr: std::net::SocketAddr,
        stop: Arc<AtomicBool>,
        handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
    }

    impl Harness {
        fn start(engine: ServiceEngine) -> Harness {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let stop = Arc::new(AtomicBool::new(false));
            let stop2 = stop.clone();
            let handle = std::thread::spawn(move || run(&listener, &engine, &stop2));
            Harness {
                addr,
                stop,
                handle: Some(handle),
            }
        }

        fn connect(&self) -> TcpStream {
            TcpStream::connect(self.addr).unwrap()
        }

        /// Send a whole program, read lines until the connection closes.
        fn roundtrip(&self, input: &str) -> String {
            let mut s = self.connect();
            s.write_all(input.as_bytes()).unwrap();
            s.shutdown(std::net::Shutdown::Write).unwrap();
            let mut out = String::new();
            BufReader::new(s).read_to_string(&mut out).unwrap();
            out
        }
    }

    impl Drop for Harness {
        fn drop(&mut self) {
            self.stop.store(true, SeqCst);
            if let Some(h) = self.handle.take() {
                h.join().unwrap().unwrap();
            }
        }
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
    fn a_session_round_trips_with_ordered_seqs() {
        let h = Harness::start(engine(4));
        let mut input = SESSION.to_owned();
        for _ in 0..8 {
            input.push_str("contains s R Q\ncontains s Q R\nminimize s R\n");
        }
        input.push_str("quit\n");
        let out = h.roundtrip(&input);
        let seqs: Vec<u64> = out
            .lines()
            .map(|l| l[1..l.find(']').unwrap()].parse().unwrap())
            .collect();
        let expected: Vec<u64> = (0..seqs.len() as u64).collect();
        assert_eq!(seqs, expected, "{out}");
        assert!(out.contains("ok holds"), "{out}");
        assert!(
            out.ends_with(&format!("[{}] ok bye\n", seqs.len() - 1)),
            "{out}"
        );
    }

    #[test]
    fn eof_without_quit_and_unterminated_final_line_drain_cleanly() {
        let h = Harness::start(engine(2));
        // No trailing newline on the last request: `BufRead::lines`
        // semantics say it still counts.
        let out =
            h.roundtrip("stats off\nschema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q");
        assert!(out.ends_with("[3] ok holds\n"), "{out}");
    }

    /// The regression this pins: a single line longer than `IN_CAP` used
    /// to fill the input buffer with no newline in sight, mask read
    /// interest, and wedge the connection forever (with a level-triggered
    /// hangup event spinning the reactor at 100% CPU once the peer
    /// half-closed). It must instead be answered `err line too long` with
    /// its bytes discarded through the newline, leaving the connection
    /// fully usable.
    #[test]
    fn an_oversized_line_is_rejected_without_wedging_the_connection() {
        let h = Harness::start(engine(2));
        let mut s = h.connect();
        s.write_all(b"stats off\n").unwrap();
        // 1.5 MiB of garbage, then the newline that ends it, then more
        // requests that must still be served.
        s.write_all(&vec![b'x'; IN_CAP + IN_CAP / 2]).unwrap();
        s.write_all(b"\nping\nquit\n").unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        BufReader::new(s).read_to_string(&mut out).unwrap();
        assert!(out.contains("[1] err line too long"), "{out}");
        assert!(out.contains("[2] ok pong"), "{out}");
        assert!(out.ends_with("[3] ok bye\n"), "{out}");
    }

    /// The exact scenario from the wedge report: an oversized line that
    /// never gets its newline, followed by a half-close. The reactor must
    /// answer the error, drain the stream to EOF, and close — not hang.
    #[test]
    fn an_oversized_unterminated_line_drains_to_eof_and_closes() {
        let h = Harness::start(engine(2));
        let mut s = h.connect();
        s.write_all(b"stats off\n").unwrap();
        s.write_all(&vec![b'y'; 2 * IN_CAP]).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        let mut out = String::new();
        // read_to_string returning at all proves the connection closed.
        BufReader::new(s).read_to_string(&mut out).unwrap();
        assert!(out.contains("[0] ok stats off"), "{out}");
        assert!(
            out.ends_with("[1] err line too long: request lines are capped at 1048576 bytes\n"),
            "{out}"
        );
    }

    #[test]
    fn a_panicking_request_is_isolated_to_its_own_response() {
        let h = Harness::start(engine(2));
        let out = h.roundtrip(
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
    fn connections_beyond_the_cap_get_err_busy() {
        let h = Harness::start(engine(1).with_max_conns(1));
        // Hold one connection open (mid-session, nothing sent).
        let held = h.connect();
        // Give the reactor a moment to register it.
        std::thread::sleep(Duration::from_millis(100));
        // The over-cap connection is answered without us sending a byte.
        let mut out = String::new();
        BufReader::new(h.connect())
            .read_to_string(&mut out)
            .unwrap();
        assert!(
            out.contains("err busy: connection limit (1) reached"),
            "{out}"
        );
        drop(held);
        // Capacity freed: the next connection is served normally.
        std::thread::sleep(Duration::from_millis(300));
        let out = h.roundtrip("stats off\nping\nquit\n");
        assert!(out.contains("[1] ok pong"), "{out}");
    }

    #[test]
    fn stats_show_reports_cache_and_coalescing_counters() {
        let h = Harness::start(engine(2));
        let out = h.roundtrip(
            "stats off\nschema s class C {}\nquery s Q { x | x in C }\n\
             contains s Q Q\ncontains s Q Q\nstats show\nquit\n",
        );
        let show = out
            .lines()
            .find(|l| l.starts_with("[5]"))
            .unwrap_or_else(|| panic!("no stats line in {out}"));
        assert!(show.contains("cache: contains_hits="), "{show}");
        assert!(show.contains("| coalesce: leaders="), "{show}");
        // The two decisions may still be in flight when `stats show` is
        // parsed (it answers inline), so only pin the field's presence.
        assert!(show.contains("| conn: backlog="), "{show}");
    }

    #[test]
    fn stats_suffix_toggles_like_the_blocking_path() {
        let h = Harness::start(engine(1));
        let out = h.roundtrip(
            "schema s class C {}\nquery s Q { x | x in C }\ncontains s Q Q\n\
             stats off\ncontains s Q Q\nquit\n",
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(" # cached=0 decided=0"), "{:?}", lines[0]);
        assert!(lines[2].contains("ok holds # cached="), "{:?}", lines[2]);
        assert!(!lines[4].contains('#'), "{:?}", lines[4]);
        assert_eq!(lines[4], "[4] ok holds");
    }

    /// K identical concurrent cold requests with the cache disabled: the
    /// singleflight table must run exactly one computation and fan the
    /// verdict out, while a concurrent `limit=`-budgeted request (which
    /// bypasses coalescing) trips its own `err timeout` without cancelling
    /// the leader. The coalesced check targets the engine's test-only
    /// `__slow__` latency hook, which holds the leader in flight for a
    /// full second — wide enough that every other connection's join is
    /// deterministic even on a loaded CI machine, so the counters below
    /// can assert *exactly one* leader instead of racing the scheduler.
    #[test]
    fn concurrent_identical_requests_coalesce_into_one_computation() {
        let h = Harness::start(ServiceEngine::with_cache(
            EngineConfig::with_threads(8),
            None,
        ));
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
        let setup = format!(
            "stats off\nschema s class T1 {{}} class T2 {{ A: {{T1}}; }}\n\
             query s Big {}\n\
             query s R {{ x | exists u, y: x in T1 & u in T1 & y in T2 & u not in y.A }}\n\
             query s __slow__ {{ x | x in T1 }}\nquit\n",
            crate::protocol::escape(&big),
        );
        assert!(h
            .roundtrip(&setup)
            .contains("[4] ok query __slow__ defined"));

        const K: usize = 6;
        let mut conns: Vec<TcpStream> = (0..K).map(|_| h.connect()).collect();
        let mut limited = h.connect();
        // Fire the identical slow check from K connections at once…
        for c in &mut conns {
            c.write_all(b"stats off\ncontains s __slow__ __slow__\nquit\n")
                .unwrap();
        }
        // …and a budgeted expensive check that must trip its own limit
        // while the coalesced flight is still in the air.
        limited
            .write_all(b"stats off\nlimit=50 contains s Big R\nquit\n")
            .unwrap();
        let mut verdicts = Vec::new();
        for c in conns.drain(..) {
            let mut out = String::new();
            BufReader::new(c).read_to_string(&mut out).unwrap();
            let verdict = out
                .lines()
                .find(|l| l.starts_with("[1]"))
                .unwrap_or_else(|| panic!("no verdict in {out}"))
                .to_owned();
            verdicts.push(verdict);
        }
        assert!(verdicts.iter().all(|v| v == &verdicts[0]), "{verdicts:?}");
        assert!(verdicts[0].contains("ok"), "{verdicts:?}");
        let mut lim_out = String::new();
        BufReader::new(limited)
            .read_to_string(&mut lim_out)
            .unwrap();
        assert!(lim_out.contains("[1] err timeout"), "{lim_out}");

        // The coalescing counters must show one leader absorbing the other
        // K-1 as waiters. (The limit= request bypasses the table, and the
        // cache is off, so nothing else can explain a single computation.)
        let show = h.roundtrip("stats off\nstats show\nquit\n");
        let line = show
            .lines()
            .find(|l| l.contains("coalesce:"))
            .unwrap_or_else(|| panic!("no coalesce line in {show}"));
        let field = |name: &str| -> u64 {
            let at = line
                .find(name)
                .unwrap_or_else(|| panic!("{name} in {line}"));
            line[at + name.len()..]
                .split_whitespace()
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        assert_eq!(field("leaders="), 1, "{line}");
        assert_eq!(field("waiters="), (K - 1) as u64, "{line}");
        assert_eq!(field("fanouts="), (K - 1) as u64, "{line}");
        assert_eq!(field("inflight="), 0, "{line}");
        assert!(line.contains("cache: disabled"), "{line}");
    }
}
