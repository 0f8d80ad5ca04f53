//! `oocq-servebench`: the repository benchmark.
//!
//! ```text
//! oocq-servebench --server PATH --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! With `--trace 0` it starts `oocq-serve` (PATH) as a child process, sets
//! a workload up over loopback TCP several times, then drives closed-loop
//! callers for S seconds and prints the end-to-end metrics. With
//! `--trace 1` it replays a fixed prefix of the same stream over the
//! socket (stats on) and in-process through the layers' public functions,
//! and prints the per-layer metrics. Every response is checked; the last
//! stdout line is one JSON object `{correct, attempted, failed, metrics}`
//! and the exit code is non-zero when any output was wrong. See
//! `servebench/WORKLOADS.md` for the workloads and the metric predictions.

mod daemon;
mod trace;
mod workload;

use daemon::{drive, CallerLog, Conn, Counters, Daemon};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Layer, Replay, LAYERS};
use workload::{Check, Plan, Req, Size, Verb};

/// End-to-end metrics and their units, printed by `--trace 0`.
const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("define_p50_us", "us"),
    ("throughput_rps", "1/s"),
    ("cpu_us_per_req", "us"),
    ("ok_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics and their units, printed by `--trace 1`.
const PER_LAYER: [(&str, &str); 34] = [
    ("service.protocol.parse_us", "us"),
    ("service.protocol.render_us", "us"),
    ("service.reactor.residual_us", "us"),
    ("service.engine.snapshot_us", "us"),
    ("service.engine.define_us", "us"),
    ("service.engine.execute_us", "us"),
    ("parser.parse_query_us", "us"),
    ("core.engine.analysis_us", "us"),
    ("core.engine.satisfiability_us", "us"),
    ("query.canonical.canonical_us", "us"),
    ("service.cache.lookup_us", "us"),
    ("service.cache.insert_us", "us"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.evictions", "count"),
    ("service.persist.replay_s", "s"),
    ("service.persist.loaded", "count"),
    ("service.persist.appended", "count"),
    ("service.flight.leaders", "count"),
    ("service.flight.waiters", "count"),
    ("core.theory.compile_us", "us"),
    ("core.theory.rewrites", "count"),
    ("core.expand.expand_us", "us"),
    ("core.expand.branches_per_req", "count"),
    ("core.branch.decide_us", "us"),
    ("core.branch.planned_per_req", "count"),
    ("core.branch.evaluated_per_req", "count"),
    ("core.branch.skipped_per_req", "count"),
    ("core.branch.searches_per_req", "count"),
    ("core.branch.backtracks_per_req", "count"),
    ("core.branch.ns_per_evaluated", "ns"),
    ("core.minimize.minimize_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_pct", "%"),
    ("host.ref_loop_ms", "ms"),
];

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut server, mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (expected one of {})",
            workload::WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// One run's result: metrics in print order plus the stamp.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    stamp: Vec<(&'static str, String)>,
    notes: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            stamp: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("metric is declared");
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push((name, value, unit));
    }

    fn stamp(&mut self, key: &'static str, value: impl Into<String>) {
        self.stamp.push((key, value.into()));
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oocq-servebench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    let outcome = run(&args, &mut report);
    if let Err(e) = outcome {
        eprintln!("oocq-servebench: {e}");
        std::process::exit(1);
    }
    for (k, v) in &report.stamp {
        println!("stamp {k}: {v}");
    }
    for n in &report.notes {
        println!("note: {n}");
    }
    for e in report.errors.iter().take(20) {
        println!("error: {e}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let correct = report.errors.is_empty();
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(n),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// The run's scratch directory, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let ref_start = ref_loop_ms();
    let size = Size {
        seconds: args.seconds,
        smoke: args.smoke,
    };
    let plan = workload::plan(&args.workload, args.seed, size)?;
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-s{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;
    let work_abs = std::fs::canonicalize(&work.0).map_err(|e| e.to_string())?;
    stamp_host(report, args, &plan);
    if args.trace {
        traced(args, &plan, &work_abs, report)?;
    } else {
        timed(args, &plan, &work_abs, report)?;
    }
    let ref_end = ref_loop_ms();
    report.stamp(
        "host.ref_loop_ms",
        format!("start {ref_start:.3}, end {ref_end:.3}"),
    );
    if args.trace {
        report.set("host.ref_loop_ms", (ref_start + ref_end) / 2.0);
    }
    if report.failed > 0 && report.errors.is_empty() {
        report
            .errors
            .push(format!("{} responses failed", report.failed));
    }
    Ok(())
}

/// A fixed ALU loop: its time tracks host speed, not the program.
fn ref_loop_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..40_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1000.0
}

fn stamp_host(report: &mut Report, args: &Args, plan: &Plan) {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    report.stamp("commit", commit);
    report.stamp("source_fnv64", format!("{:016x}", source_fingerprint()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.stamp("nproc", nproc.to_string());
    report.stamp(
        "oocq_env",
        if plan.persistent {
            "OOCQ_LISTEN=127.0.0.1:0 OOCQ_CACHE_DIR=<run dir>/cache; other OOCQ_* unset"
        } else {
            "OOCQ_LISTEN=127.0.0.1:0; other OOCQ_* unset"
        },
    );
    report.stamp("workload", args.workload.clone());
    report.stamp("seed", args.seed.to_string());
    report.stamp("smoke", args.smoke.to_string());
}

/// FNV-1a over the program's sources (`Cargo.*`, `src/`, `crates/`), so a
/// run outside a git checkout still names the code it measured.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

// ------------------------------------------------------------- socket phases

/// Responses that must be checked by the reference engine after the run,
/// with the request each answers.
type Deferred = Vec<(Req, String)>;

/// The deferred responses of the callers' scripts.
fn caller_deferred(plan: &Plan, logs: &[CallerLog]) -> Deferred {
    logs.iter()
        .zip(&plan.callers)
        .flat_map(|(l, script)| {
            l.deferred
                .iter()
                .map(move |(pos, payload)| (script[pos % script.len()].clone(), payload.clone()))
        })
        .collect()
}

/// Check one set-up response (set-up time is measured, so reference
/// checks wait until the run is over).
fn check_setup(req: &Req, resp: &daemon::Resp, deferred: &mut Deferred, errors: &mut Vec<String>) {
    if !resp.ok {
        errors.push(format!("set-up `{}` -> err {}", req.line, resp.payload));
        return;
    }
    match &req.check {
        Check::Known(p) if *p == resp.payload => {}
        Check::Known(p) => errors.push(format!(
            "set-up `{}` -> `{}`, expected `{p}`",
            req.line, resp.payload
        )),
        Check::Reference { .. } => deferred.push((req.clone(), resp.payload.clone())),
    }
}

/// The fixture of a warm restart: a first daemon with the cache directory
/// decides the hot set, then dies. Returns the directory.
fn fixture(
    args: &Args,
    plan: &Plan,
    work: &Path,
    report: &mut Report,
) -> Result<Option<PathBuf>, String> {
    if !plan.persistent {
        return Ok(None);
    }
    let dir = work.join("cache");
    let daemon =
        Daemon::spawn(&args.server, work, "fixture", Some(&dir)).map_err(|e| e.to_string())?;
    let mut conn = daemon.connect().map_err(|e| e.to_string())?;
    // Fixture payloads are all known before the run: nothing is deferred.
    let mut deferred = Deferred::new();
    for req in &plan.fixture {
        let (resp, _) = conn.call(&req.line).map_err(|e| e.to_string())?;
        check_setup(req, &resp, &mut deferred, &mut report.errors);
    }
    let appended = conn
        .stats()
        .map_err(|e| e.to_string())?
        .get("persist.appended");
    if appended != plan.hot_keys {
        report.errors.push(format!(
            "fixture appended {appended} verdicts, the hot set has {} keys",
            plan.hot_keys
        ));
    }
    Ok(Some(dir))
}

/// A daemon set up for the timed phase, with its control and caller
/// connections open.
struct SetUp {
    daemon: Daemon,
    control: Conn,
    callers: Vec<Conn>,
    seconds: f64,
    define_ns: Vec<u64>,
    banner: String,
}

fn set_up(
    args: &Args,
    plan: &Plan,
    work: &Path,
    tag: &str,
    cache: Option<&Path>,
    deferred: &mut Deferred,
    errors: &mut Vec<String>,
) -> Result<SetUp, String> {
    let start = Instant::now();
    let daemon = Daemon::spawn(&args.server, work, tag, cache).map_err(|e| e.to_string())?;
    let mut control = daemon.connect().map_err(|e| e.to_string())?;
    let mut define_ns = Vec::new();
    for req in plan.setup.iter().chain(&plan.warmup) {
        let (resp, took) = control.call(&req.line).map_err(|e| e.to_string())?;
        if req.verb == Verb::Define {
            define_ns.push(took.as_nanos() as u64);
        }
        check_setup(req, &resp, deferred, errors);
    }
    let callers = plan
        .callers
        .iter()
        .map(|_| daemon.connect())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let seconds = start.elapsed().as_secs_f64();
    let banner = std::fs::read_to_string(work.join(format!("{tag}.stderr")))
        .unwrap_or_default()
        .lines()
        .next()
        .unwrap_or("")
        .to_owned();
    Ok(SetUp {
        daemon,
        control,
        callers,
        seconds,
        define_ns,
        banner,
    })
}

/// The timed phase's latency, throughput and CPU metrics, each taken over
/// short equal windows of the run: the lower decile of the windows' values
/// (the upper decile for throughput). The shared host only ever adds time,
/// in stalls that last seconds and cover anywhere from none to most of a
/// run, so the quiet windows are what the program itself costs; a change to
/// the program moves every window, the quiet ones too.
struct Windowed {
    p50: f64,
    p99: f64,
    define_p50: f64,
    rps: f64,
    cpu_per_req: f64,
    describe: String,
}

/// The window quantile a run reports: the lower decile.
const QUIET: f64 = 0.1;

/// One window's figures: decision latencies (sorted), bind latency p50,
/// requests per second and server CPU per request.
struct Window {
    decisions: Vec<u64>,
    define_p50: Option<f64>,
    rps: f64,
    cpu_per_req: f64,
}

/// The answers completed in `[lo, hi)` ns, with the server CPU the window
/// used; `None` when it holds no decision.
fn window(logs: &[CallerLog], (lo, hi): (u64, u64), cpu_us: u64) -> Option<Window> {
    let answers: Vec<&(u64, u64, Verb)> = logs
        .iter()
        .flat_map(|l| &l.answers)
        .filter(|a| a.0 >= lo && a.0 < hi)
        .collect();
    let of = |verb: Verb| -> Vec<u64> {
        let mut v: Vec<u64> = answers
            .iter()
            .filter(|a| a.2 == verb)
            .map(|a| a.1)
            .collect();
        v.sort_unstable();
        v
    };
    let (decisions, defines) = (of(Verb::Decide), of(Verb::Define));
    if decisions.is_empty() {
        return None;
    }
    let done = answers.len() as f64;
    Some(Window {
        decisions,
        define_p50: (!defines.is_empty()).then(|| percentile(&defines, 0.5)),
        rps: done / ((hi - lo) as f64 / 1e9),
        cpu_per_req: cpu_us as f64 / done,
    })
}

/// Cut the timed phase into windows of `len` whole seconds aligned with the
/// per-second CPU samples. Answers completed after the last whole window
/// (the drain of in-flight requests) are left out. A run shorter than one
/// window (a caller ran out of script) is one window up to `end`, its last
/// answer and CPU reading.
fn cut(logs: &[CallerLog], cpu: &[(u64, u64)], end: (u64, u64), len: usize) -> Vec<Window> {
    let full = cpu.len().saturating_sub(1) / len;
    if full == 0 {
        let start = cpu.first().map_or(end.1, |c| c.1);
        return window(logs, (0, end.0 + 1), end.1.saturating_sub(start))
            .into_iter()
            .collect();
    }
    (0..full)
        .filter_map(|w| {
            let (lo, hi) = (cpu[w * len], cpu[(w + 1) * len]);
            window(logs, (lo.0, hi.0), hi.1.saturating_sub(lo.1))
        })
        .collect()
}

/// One-second windows for the medians, throughput and CPU. The tail comes
/// from longer windows, as many as divide the run with at least 1000
/// decisions each when the run has them, so each window's tail is a true
/// p99: the highest percentile with at least ten decisions beyond it.
fn windows(logs: &[CallerLog], cpu: &[(u64, u64)], end: (u64, u64), seconds: u64) -> Windowed {
    let decisions = logs
        .iter()
        .flat_map(|l| &l.answers)
        .filter(|a| a.2 == Verb::Decide)
        .count() as u64;
    let count = (1..=(decisions / 1000).clamp(1, seconds.max(1)))
        .rev()
        .find(|k| seconds.is_multiple_of(*k))
        .unwrap_or(1);
    let tail_len = (seconds / count) as usize;
    let short = cut(logs, cpu, end, 1);
    let tails = cut(logs, cpu, end, tail_len);
    let mut p99 = Vec::new();
    let mut percentiles = Vec::new();
    for w in &tails {
        let n = w.decisions.len();
        let q = (n.saturating_sub(10) as f64 / n as f64).clamp(0.5, 0.99);
        p99.push(percentile(&w.decisions, q));
        percentiles.push(format!(
            "p{:.2}/{n}={:.1}us",
            q * 100.0,
            p99[p99.len() - 1] / 1000.0
        ));
    }
    let mut p50: Vec<f64> = short
        .iter()
        .map(|w| percentile(&w.decisions, 0.5))
        .collect();
    let mut define: Vec<f64> = short.iter().filter_map(|w| w.define_p50).collect();
    let mut rps: Vec<f64> = short.iter().map(|w| w.rps).collect();
    let mut cpr: Vec<f64> = short.iter().map(|w| w.cpu_per_req).collect();
    let list = |v: &[f64], scale: f64| {
        v.iter()
            .map(|x| format!("{:.1}", x / scale))
            .collect::<Vec<_>>()
            .join(",")
    };
    let describe = format!(
        "{} windows of 1 s, p50_us [{}] define_p50_us [{}] rps [{}] cpu_us_per_req [{}]; \
         {} windows of {tail_len} s, tail percentile/decisions=value: {}",
        short.len(),
        list(&p50, 1000.0),
        list(&define, 1000.0),
        list(&rps, 1.0),
        list(&cpr, 1.0),
        tails.len(),
        percentiles.join(" ")
    );
    Windowed {
        p50: quantile_f64(&mut p50, QUIET),
        p99: quantile_f64(&mut p99, QUIET),
        define_p50: if define.is_empty() {
            f64::NAN
        } else {
            quantile_f64(&mut define, QUIET)
        },
        rps: quantile_f64(&mut rps, 1.0 - QUIET),
        cpu_per_req: quantile_f64(&mut cpr, QUIET),
        describe,
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The `q`-quantile of `v`, interpolated between the nearest samples.
fn quantile_f64(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

/// The requests each caller actually answered, in script order.
fn executed<'a>(plan: &'a Plan, logs: &[CallerLog]) -> impl Iterator<Item = &'a Req> + 'a {
    let counts: Vec<usize> = logs.iter().map(|l| l.answered).collect();
    plan.callers
        .iter()
        .zip(counts)
        .flat_map(|(script, n)| (0..n).map(move |i| &script[i % script.len()]))
}

/// Key hygiene: the timed phase's cache traffic from `stats show` must be
/// exactly what the generator predicts for the requests answered.
fn hygiene(
    plan: &Plan,
    logs: &[CallerLog],
    before: &Counters,
    after: &Counters,
    errors: &mut Vec<String>,
) {
    let (hits, misses) =
        executed(plan, logs).fold((0, 0), |(h, m), r| (h + r.lookups.0, m + r.lookups.1));
    let got_hits =
        after.since(before, "cache.contains_hits") + after.since(before, "cache.minimize_hits");
    let got_misses =
        after.since(before, "cache.contains_misses") + after.since(before, "cache.minimize_misses");
    if (got_hits, got_misses) != (hits, misses) {
        errors.push(format!(
            "cache traffic: {got_hits} hits / {got_misses} misses, the generator predicts {hits} / {misses}"
        ));
    }
    if plan.persistent {
        let loaded = after.get("persist.loaded");
        if loaded != plan.hot_keys || after.get("persist.appended") != 0 {
            errors.push(format!(
                "persist: loaded={loaded} appended={}, expected loaded={} appended=0",
                after.get("persist.appended"),
                plan.hot_keys
            ));
        }
    }
}

/// Check deferred payloads against the reference (the core engine, no
/// cache, over the same texts); distinct requests are computed once.
fn check_deferred(plan: &Plan, deferred: &[(Req, String)], errors: &mut Vec<String>) -> u64 {
    if deferred.is_empty() {
        return 0;
    }
    let mut engine = Replay::reference();
    for req in &plan.setup {
        if let Err(e) = engine.step(0, &req.line) {
            errors.push(format!("reference set-up `{}`: {e}", req.line));
            return deferred.len() as u64;
        }
    }
    let mut memo: std::collections::HashMap<String, Result<String, String>> = Default::default();
    let mut failed = 0;
    for (req, got) in deferred {
        let Check::Reference { binds } = &req.check else {
            continue;
        };
        let key = format!("{}\n{}", binds.join("\n"), req.line);
        let want = memo
            .entry(key)
            .or_insert_with(|| workload::reference(&mut engine, binds, &req.line));
        if want.as_ref() != Ok(got) {
            failed += 1;
            errors.push(format!("`{}` -> `{got}`, reference {want:?}", req.line));
        }
    }
    failed
}

fn verb_counts(reqs: impl Iterator<Item = impl std::ops::Deref<Target = Req>>) -> String {
    let mut counts: Vec<(String, u64)> = Vec::new();
    for r in reqs {
        let verb = r.line.split_whitespace().next().unwrap_or("").to_owned();
        match counts.iter_mut().find(|(v, _)| *v == verb) {
            Some((_, n)) => *n += 1,
            None => counts.push((verb, 1)),
        }
    }
    counts
        .iter()
        .map(|(v, n)| format!("{v}={n}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `--trace 0`: set up several times, then the timed closed loop.
fn timed(args: &Args, plan: &Plan, work: &Path, report: &mut Report) -> Result<(), String> {
    let cache = fixture(args, plan, work, report)?;
    let reps = if args.smoke { 2 } else { 15 };
    let mut setup_s = Vec::new();
    let mut setup_define_ns = Vec::new();
    let mut deferred = Deferred::new();
    let mut last = None;
    for rep in 0..reps {
        let s = set_up(
            args,
            plan,
            work,
            &format!("setup{rep}"),
            cache.as_deref(),
            &mut deferred,
            &mut report.errors,
        )?;
        setup_s.push(s.seconds);
        setup_define_ns.extend_from_slice(&s.define_ns);
        if rep + 1 == reps {
            last = Some(s);
        }
    }
    let mut s = last.expect("at least one set-up");
    report.stamp("server", s.banner.clone());
    report.stamp(
        "setup_runs_s",
        setup_s
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(" "),
    );
    let before = s.control.stats().map_err(|e| e.to_string())?;
    let (logs, cpu, wall) = drive(
        &mut s.callers,
        &plan.callers,
        plan.cycle,
        Duration::from_secs(args.seconds),
        None,
        Some(&s.daemon),
    )
    .map_err(|e| e.to_string())?;
    let cpu_end = s.daemon.cpu_us().map_err(|e| e.to_string())?;
    let after = s.control.stats().map_err(|e| e.to_string())?;
    let rss_kib = s.daemon.peak_rss_kib().map_err(|e| e.to_string())?;
    drop(s);

    hygiene(plan, &logs, &before, &after, &mut report.errors);
    let completed: u64 = logs.iter().map(|l| l.answered as u64).sum();
    let mut ok: u64 = logs.iter().map(|l| l.ok).sum();
    for l in &logs {
        report.errors.extend(l.errors.iter().cloned());
        if l.exhausted {
            report.notes.push(
                "a caller ran out of script before the clock; the run measured less".to_owned(),
            );
        }
    }
    let timed_deferred = caller_deferred(plan, &logs);
    let timed_failed = check_deferred(plan, &timed_deferred, &mut report.errors);
    ok += timed_deferred.len() as u64 - timed_failed;
    check_deferred(plan, &deferred, &mut report.errors);

    let w = windows(&logs, &cpu, (wall.as_nanos() as u64, cpu_end), args.seconds);
    let define_p50 = if w.define_p50.is_nan() {
        setup_define_ns.sort_unstable();
        report.stamp(
            "define_p50_source",
            format!(
                "set-up definitions (the timed phase only decides), {} samples",
                setup_define_ns.len()
            ),
        );
        percentile(&setup_define_ns, 0.5)
    } else {
        w.define_p50
    };
    report.stamp("windows", w.describe);
    report.stamp("timed_requests", verb_counts(executed(plan, &logs)));
    report.stamp("timed_wall_s", format!("{:.4}", wall.as_secs_f64()));
    report.attempted = completed;
    report.failed = completed - ok.min(completed);
    report.set("latency_p50_us", w.p50 / 1000.0);
    report.set("latency_p99_us", w.p99 / 1000.0);
    report.set("define_p50_us", define_p50 / 1000.0);
    report.set("throughput_rps", w.rps);
    report.set("cpu_us_per_req", w.cpu_per_req);
    report.set("ok_ratio", ok as f64 / completed.max(1) as f64);
    report.set("setup_s", quantile_f64(&mut setup_s, 0.5));
    report.set("peak_rss_mb", rss_kib as f64 / 1024.0);
    Ok(())
}

// ---------------------------------------------------------------- traced run

/// Requests per caller replayed by the traced run (fixed, so its counts
/// repeat exactly for a seed).
fn trace_requests(workload: &str, smoke: bool) -> usize {
    match (workload, smoke) {
        ("cold_decide", false) => 330,
        ("cold_decide", true) => 30,
        ("warm_serve", false) => 2000,
        ("session_churn", false) => 1200,
        _ => 100,
    }
}

fn copy_cache(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for e in std::fs::read_dir(from)
        .map_err(|e| e.to_string())?
        .flatten()
    {
        if e.file_name() != "lock" {
            std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `--trace 1`: the socket pass (residual, coalescing counters) and the
/// in-process replays (spans off, then spans on with the twin).
fn traced(args: &Args, plan: &Plan, work: &Path, report: &mut Report) -> Result<(), String> {
    let per_caller = trace_requests(&args.workload, args.smoke);
    let cache = fixture(args, plan, work, report)?;
    let mut deferred = Deferred::new();
    let mut s = set_up(
        args,
        plan,
        work,
        "trace",
        cache.as_deref(),
        &mut deferred,
        &mut report.errors,
    )?;
    report.stamp("server", s.banner.clone());
    let before = s.control.stats().map_err(|e| e.to_string())?;
    let (logs, _, _) = drive(
        &mut s.callers,
        &plan.callers,
        plan.cycle,
        Duration::from_secs(150),
        Some(per_caller),
        None,
    )
    .map_err(|e| e.to_string())?;
    let after = s.control.stats().map_err(|e| e.to_string())?;
    drop(s);
    hygiene(plan, &logs, &before, &after, &mut report.errors);
    let mut attempted: u64 = logs.iter().map(|l| l.answered as u64).sum();
    let mut failed: u64 = logs.iter().map(|l| l.errors.len() as u64).sum();
    for l in &logs {
        report.errors.extend(l.errors.iter().cloned());
    }
    failed += check_deferred(plan, &caller_deferred(plan, &logs), &mut report.errors);
    failed += check_deferred(plan, &deferred, &mut report.errors);
    let mut residual: Vec<i64> = logs
        .iter()
        .flat_map(|l| l.residual_ns.iter().copied())
        .collect();
    residual.sort_unstable();
    let residual_p50 = residual.get(residual.len() / 2).copied().unwrap_or(0);

    // The stream: set-up, warm-up, then the callers' prefixes interleaved.
    let mut timed_reqs: Vec<&Req> = Vec::new();
    for i in 0..per_caller {
        for script in &plan.callers {
            if i < script.len() || plan.cycle {
                timed_reqs.push(&script[i % script.len()]);
            }
        }
    }
    let prelude: Vec<&Req> = plan.setup.iter().chain(&plan.warmup).collect();
    let open = |tag: &str| -> Result<(oocq_service::CanonicalDecisionCache, Duration), String> {
        match &cache {
            Some(dir) => {
                let copy = work.join(tag);
                copy_cache(dir, &copy)?;
                trace::open_cache(Some(&copy))
            }
            None => trace::open_cache(None),
        }
    };

    // Spans off.
    let (c, _) = open("replay-plain")?;
    let mut plain = Replay::new(Some(c), None);
    for (i, r) in prelude.iter().enumerate() {
        plain.step(i as u64, &r.line)?;
    }
    let start = Instant::now();
    for (i, r) in timed_reqs.iter().enumerate() {
        let _ = plain.step(i as u64, &r.line);
    }
    let plain_ns = start.elapsed().as_nanos() as f64;
    drop(plain);

    // Spans on, with the twin.
    let (c, replay_time) = open("replay-traced")?;
    let loaded = c.persist_stats().map_or(0, |p| p.loaded);
    let (twin, _) = open("replay-twin")?;
    let mut rep = Replay::new(Some(c), Some(twin));
    for (i, r) in prelude.iter().enumerate() {
        rep.step(i as u64, &r.line)?;
    }
    rep.start_recording();
    let start = Instant::now();
    for (i, r) in timed_reqs.iter().enumerate() {
        attempted += 1;
        let got = rep.step(i as u64, &r.line);
        let good = match (&r.check, &got) {
            (Check::Known(want), Ok(p)) => want == p,
            (Check::Reference { .. }, Ok(_)) => true,
            _ => false,
        };
        if !good {
            failed += 1;
            report
                .errors
                .push(format!("replay `{}` -> {got:?}", r.line));
        }
    }
    let traced_ns = start.elapsed().as_nanos() as f64 - rep.twin_ns as f64;
    rep.finish_recording();
    failed += rep.mismatches.len() as u64;
    report.errors.extend(rep.mismatches.iter().cloned());
    let appended = rep
        .cache()
        .and_then(|c| c.persist_stats())
        .map_or(0, |p| p.appended);

    report.stamp("trace_requests", verb_counts(timed_reqs.iter().copied()));
    report.stamp("trace_spans", rep.spans().len().to_string());
    report.attempted = attempted;
    report.failed = failed;

    let mut totals = [(0u64, 0u64); LAYERS.len()];
    for span in rep.spans() {
        let i = LAYERS
            .iter()
            .position(|l| *l == span.layer)
            .expect("known layer");
        totals[i].0 += span.ns;
        totals[i].1 += 1;
    }
    let mean_us = |layer: Layer| {
        let (ns, calls) = totals[LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("known layer")];
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64 / 1000.0
        }
    };
    for layer in LAYERS {
        if mean_us(layer) == 0.0 {
            report.notes.push(format!(
                "{} is 0: the layer is not called in this replay",
                layer.metric()
            ));
        }
    }
    let c = rep.counts;
    let per_req = |v: u64| v as f64 / c.decisions.max(1) as f64;
    let get = |m: &str| {
        LAYERS
            .iter()
            .find(|l| l.metric() == m)
            .map(|l| mean_us(*l))
            .expect("span metric")
    };
    for (name, _) in PER_LAYER {
        let value = match name {
            "service.reactor.residual_us" => residual_p50 as f64 / 1000.0,
            "service.cache.hit_ratio" => c.cache_hits as f64 / c.cache_lookups.max(1) as f64,
            "service.cache.evictions" => c.evictions as f64,
            "service.persist.replay_s" => {
                if cache.is_some() {
                    replay_time.as_secs_f64()
                } else {
                    report.notes.push(
                        "service.persist.* are 0: this workload runs without a cache directory"
                            .to_owned(),
                    );
                    0.0
                }
            }
            "service.persist.loaded" => loaded as f64,
            "service.persist.appended" => appended as f64,
            "service.flight.leaders" => after.since(&before, "coalesce.leaders") as f64,
            "service.flight.waiters" => after.since(&before, "coalesce.waiters") as f64,
            "core.theory.rewrites" => c.theory_rewrites as f64,
            "core.expand.branches_per_req" => per_req(c.expansion_branches),
            "core.branch.planned_per_req" => per_req(c.branch.branches_planned),
            "core.branch.evaluated_per_req" => per_req(c.branch.branches_evaluated),
            "core.branch.skipped_per_req" => per_req(c.branch.branches_skipped),
            "core.branch.searches_per_req" => per_req(c.branch.mapping_searches),
            "core.branch.backtracks_per_req" => per_req(c.branch.mapping_backtracks),
            "core.branch.ns_per_evaluated" => {
                let (ns, _) = totals[LAYERS
                    .iter()
                    .position(|l| *l == Layer::BranchDecide)
                    .expect("layer")];
                ns as f64 / c.branch.branches_evaluated.max(1) as f64
            }
            "trace.overhead_pct" => (traced_ns - plain_ns) / plain_ns * 100.0,
            "trace.reconcile_pct" => rep.inside_ns as f64 / rep.twin_wall_ns.max(1) as f64 * 100.0,
            "host.ref_loop_ms" => continue,
            span => get(span),
        };
        report.set(name, value);
    }
    report.stamp(
        "branch_counts",
        format!(
            "decisions={} planned={} evaluated={} skipped={} searches={} backtracks={}",
            c.decisions,
            c.branch.branches_planned,
            c.branch.branches_evaluated,
            c.branch.branches_skipped,
            c.branch.mapping_searches,
            c.branch.mapping_backtracks
        ),
    );
    Ok(())
}
