//! The daemon under test and the closed-loop callers that drive it.
//!
//! `oocq-serve` runs as a child process listening on loopback; its CPU time
//! and peak RSS are read from `/proc/<pid>`, so the load generator's own
//! footprint stays out of both. All callers share this one thread: each
//! has one connection and at most one request in flight, and an epoll
//! [`Poller`] waits for whichever answers first.

use crate::workload::{Check, Req, Verb};
use oocq_service::poll::{PollEvent, Poller};
use oocq_service::unescape;
use std::fs::File;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `oocq-serve`; killed and reaped on drop.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Start `server` on an ephemeral loopback port (optionally with a
    /// persistent cache directory) and wait until it reports its address.
    /// Every inherited `OOCQ_*` variable is removed, so the daemon runs
    /// its default configuration.
    pub fn spawn(
        server: &Path,
        work: &Path,
        tag: &str,
        cache_dir: Option<&Path>,
    ) -> io::Result<Daemon> {
        let log: PathBuf = work.join(format!("{tag}.stderr"));
        let mut cmd = Command::new(server);
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("OOCQ_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("OOCQ_LISTEN", "127.0.0.1:0");
        if let Some(dir) = cache_dir {
            cmd.env("OOCQ_CACHE_DIR", dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(&log)?);
        let mut daemon = Daemon {
            child: cmd.spawn()?,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(&log)?;
            // Only a complete line: the daemon may be mid-write.
            let banner = text
                .split_inclusive('\n')
                .next()
                .filter(|l| l.ends_with('\n'));
            if let Some(rest) = banner.and_then(|l| l.split("listening on ").nth(1)) {
                let addr = rest.split_whitespace().next().unwrap_or("");
                daemon.addr = addr
                    .parse()
                    .map_err(|e| io::Error::other(format!("bad address `{addr}`: {e}")))?;
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "oocq-serve exited early ({status}): {text}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("oocq-serve did not report its address"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Server CPU time so far (user + system, every thread), in µs.
    pub fn cpu_us(&self) -> io::Result<u64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))?;
        // Fields after the parenthesized command name; utime and stime are
        // fields 14 and 15 of the whole line, in USER_HZ (100/s) ticks.
        let tail = stat.rsplit_once(')').map(|(_, t)| t).unwrap_or("");
        let fields: Vec<&str> = tail.split_whitespace().collect();
        let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
        match (tick(11), tick(12)) {
            (Some(u), Some(s)) => Ok((u + s) * 10_000),
            _ => Err(io::Error::other("unreadable /proc stat")),
        }
    }

    /// Peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
            next_seq: 0,
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One parsed response line.
#[derive(Debug)]
pub struct Resp {
    pub seq: u64,
    pub ok: bool,
    pub payload: String,
    /// The server's `wall_us` from the ` # …` stats suffix.
    pub wall_us: Option<u64>,
}

pub fn parse_response(line: &str) -> Result<Resp, String> {
    let bad = || format!("malformed response `{line}`");
    let rest = line.strip_prefix('[').ok_or_else(bad)?;
    let (seq, rest) = rest.split_once("] ").ok_or_else(bad)?;
    let seq = seq.parse().map_err(|_| bad())?;
    let (ok, rest) = if let Some(r) = rest.strip_prefix("ok ") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("err ") {
        (false, r)
    } else {
        return Err(bad());
    };
    let (payload, wall_us) = match rest.rfind(" # cached=") {
        Some(i) => {
            let wall = rest[i..]
                .split_whitespace()
                .find_map(|w| w.strip_prefix("wall_us="))
                .and_then(|w| w.parse().ok());
            (&rest[..i], wall)
        }
        None => (rest, None),
    };
    Ok(Resp {
        seq,
        ok,
        payload: unescape(payload),
        wall_us,
    })
}

/// One client connection with its own line buffer and `[seq]` counter.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    pub next_seq: u64,
}

impl Conn {
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// A complete line already buffered, if any.
    fn take_line(&mut self) -> Option<String> {
        let i = self.buf.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&self.buf[..i]).into_owned();
        self.buf.drain(..=i);
        Some(line)
    }

    /// Read once (the caller knows the socket is readable, or blocks).
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16384];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Send one line and block for its response; returns it with its
    /// round-trip time. The response's `[seq]` must be the next one.
    pub fn call(&mut self, line: &str) -> io::Result<(Resp, Duration)> {
        let start = Instant::now();
        self.send(line)?;
        let raw = loop {
            if let Some(l) = self.take_line() {
                break l;
            }
            self.fill()?;
        };
        let took = start.elapsed();
        let resp = parse_response(&raw).map_err(io::Error::other)?;
        if resp.seq != self.next_seq {
            return Err(io::Error::other(format!(
                "response [{}] out of order, expected [{}]",
                resp.seq, self.next_seq
            )));
        }
        self.next_seq += 1;
        Ok((resp, took))
    }

    /// `stats show`, parsed into `key=value` counters.
    pub fn stats(&mut self) -> io::Result<Counters> {
        let (resp, _) = self.call("stats show")?;
        Ok(Counters::parse(&resp.payload))
    }
}

/// The counters of one `stats show` report.
#[derive(Clone, Debug, Default)]
pub struct Counters(pub Vec<(String, u64)>);

impl Counters {
    fn parse(report: &str) -> Counters {
        let mut out = Vec::new();
        let mut section = "";
        for word in report.split_whitespace() {
            if let Some(s) = word.strip_suffix(':') {
                section = s;
            } else if let Some((k, v)) = word.split_once('=') {
                if let Ok(v) = v.parse() {
                    out.push((format!("{section}.{k}"), v));
                }
            }
        }
        Counters(out)
    }

    pub fn get(&self, key: &str) -> u64 {
        self.0.iter().find(|(k, _)| k == key).map_or(0, |(_, v)| *v)
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Counters, key: &str) -> u64 {
        self.get(key).saturating_sub(before.get(key))
    }
}

/// Server CPU samples: `(ns since the loop started, cpu µs)`.
pub type CpuSamples = Vec<(u64, u64)>;

/// What one closed-loop caller saw.
#[derive(Default)]
pub struct CallerLog {
    /// Script positions answered, in order (wrapping when cycling).
    pub answered: usize,
    /// `(completed at, round-trip time, verb)` of every answer, times in ns
    /// since the loop started.
    pub answers: Vec<(u64, u64, Verb)>,
    /// `client latency − server wall_us` of decisions, in ns.
    pub residual_ns: Vec<i64>,
    /// Responses that matched their known payload.
    pub ok: u64,
    /// Script positions whose payload is checked after the run.
    pub deferred: Vec<(usize, String)>,
    /// Mismatches, for the report.
    pub errors: Vec<String>,
    /// The caller ran out of script before the clock did.
    pub exhausted: bool,
}

/// Check one response against its request; `Reference` checks are
/// deferred with the payload.
fn check(log: &mut CallerLog, pos: usize, req: &Req, resp: &Resp) {
    if !resp.ok {
        log.errors
            .push(format!("`{}` -> err {}", req.line, resp.payload));
        return;
    }
    match &req.check {
        Check::Known(expect) if *expect == resp.payload => log.ok += 1,
        Check::Known(expect) => log.errors.push(format!(
            "`{}` -> `{}`, expected `{expect}`",
            req.line, resp.payload
        )),
        Check::Reference { .. } => log.deferred.push((pos, resp.payload.clone())),
    }
}

/// Closed loop: each caller sends its next request only after the previous
/// answer arrived, until `limit` passes (no new sends after it) or its
/// script runs out (`cycle` restarts it instead), or after `max_requests`
/// per caller when given. With a daemon, its CPU time is sampled every
/// whole second of the loop. Returns each caller's log, the CPU samples
/// and the wall time from the first send to the last answer.
pub fn drive(
    conns: &mut [Conn],
    scripts: &[Vec<Req>],
    cycle: bool,
    limit: Duration,
    max_requests: Option<usize>,
    daemon: Option<&Daemon>,
) -> io::Result<(Vec<CallerLog>, CpuSamples, Duration)> {
    let mut poller = Poller::new()?;
    for (i, c) in conns.iter().enumerate() {
        poller.register(c.stream.as_raw_fd(), i as u64, true, false)?;
    }
    let mut logs: Vec<CallerLog> = conns.iter().map(|_| CallerLog::default()).collect();
    let mut sent_at: Vec<Option<Instant>> = vec![None; conns.len()];
    let mut cpu = Vec::new();
    let start = Instant::now();
    if let Some(d) = daemon {
        cpu.push((0, d.cpu_us()?));
    }
    let can_send = |log: &mut CallerLog, script: &[Req]| -> Option<usize> {
        if start.elapsed() >= limit || max_requests.is_some_and(|m| log.answered >= m) {
            return None;
        }
        if log.answered >= script.len() && !cycle {
            log.exhausted = true;
            return None;
        }
        Some(log.answered % script.len())
    };
    for (i, c) in conns.iter_mut().enumerate() {
        if let Some(pos) = can_send(&mut logs[i], &scripts[i]) {
            sent_at[i] = Some(Instant::now());
            c.send(&scripts[i][pos].line)?;
        }
    }
    let mut events: Vec<PollEvent> = Vec::new();
    let mut last_event = Instant::now();
    while sent_at.iter().any(Option::is_some) {
        let next_tick = Duration::from_secs(cpu.len() as u64);
        if let Some(d) = daemon.filter(|_| start.elapsed() >= next_tick) {
            cpu.push((next_tick.as_nanos() as u64, d.cpu_us()?));
            continue;
        }
        events.clear();
        let wait = match daemon {
            Some(_) => next_tick.saturating_sub(start.elapsed()),
            None => Duration::from_secs(120),
        };
        poller.wait(&mut events, Some(wait))?;
        if events.is_empty() {
            if last_event.elapsed() > Duration::from_secs(120) {
                return Err(io::Error::other("no response within 120 s"));
            }
            continue;
        }
        last_event = Instant::now();
        for ev in &events {
            let i = ev.token as usize;
            let conn = &mut conns[i];
            conn.fill()?;
            while let Some(raw) = conn.take_line() {
                let Some(sent) = sent_at[i].take() else {
                    return Err(io::Error::other(format!("unsolicited response `{raw}`")));
                };
                let took = sent.elapsed();
                let log = &mut logs[i];
                let pos = log.answered % scripts[i].len();
                let req = &scripts[i][pos];
                let resp = parse_response(&raw).map_err(io::Error::other)?;
                let in_order = resp.seq == conn.next_seq;
                if !in_order {
                    log.errors.push(format!(
                        "`{}` answered as [{}], expected [{}]",
                        req.line, resp.seq, conn.next_seq
                    ));
                }
                conn.next_seq += 1;
                let ns = took.as_nanos() as u64;
                let at = start.elapsed().as_nanos() as u64;
                log.answers.push((at, ns, req.verb));
                if let (Verb::Decide, Some(w)) = (req.verb, resp.wall_us) {
                    log.residual_ns.push(ns as i64 - (w as i64) * 1000);
                }
                if in_order {
                    check(log, pos, req, &resp);
                }
                log.answered += 1;
                if let Some(next) = can_send(log, &scripts[i]) {
                    sent_at[i] = Some(Instant::now());
                    conn.send(&scripts[i][next].line)?;
                }
            }
        }
    }
    let wall = start.elapsed();
    if let Some(d) = daemon {
        // The tick at the end of the clock, usually reached while the last
        // answers drained.
        let tick = Duration::from_secs(cpu.len() as u64);
        if wall >= tick {
            cpu.push((tick.as_nanos() as u64, d.cpu_us()?));
        }
    }
    for c in conns.iter() {
        poller.deregister(c.stream.as_raw_fd())?;
    }
    Ok((logs, cpu, wall))
}
