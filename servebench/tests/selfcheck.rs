//! Smoke-sized self-check of the benchmark, a few seconds per workload:
//! every metric `BENCHMARK.json` declares is printed with its unit, the
//! run's own correctness and key-hygiene checks pass, and the branch
//! engine's counts repeat exactly for one seed.
//!
//! Run with `cargo test --release --offline --manifest-path servebench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives in the repository")
        .to_path_buf()
}

/// Build `oocq-serve` once and return its path.
fn server() -> &'static Path {
    static SERVER: OnceLock<PathBuf> = OnceLock::new();
    SERVER.get_or_init(|| {
        let root = repo_root();
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .map(|t| if t.is_absolute() { t } else { root.join(t) })
            .unwrap_or_else(|| root.join("target"));
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
        let status = Command::new(cargo)
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "--bin",
                "oocq-serve",
            ])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building oocq-serve failed");
        target.join("release").join("oocq-serve")
    })
}

/// Run one smoke-sized benchmark; returns stdout. Fails on a non-zero exit.
fn run(workload: &str, seed: u64, trace: bool) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_oocq-servebench"))
        .current_dir(repo_root())
        .arg("--server")
        .arg(server())
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = start + text[start..].find(']').expect("section closes");
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_owned()
    };
    text[start..end]
        .split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn result_line(stdout: &str) -> &str {
    stdout.lines().last().expect("a result line")
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for workload in ["cold_decide", "warm_serve", "session_churn"] {
        for (trace, metrics) in [(false, &e2e), (true, &layers)] {
            let stdout = run(workload, 7, trace);
            let line = result_line(&stdout);
            assert!(
                line.starts_with("{\"correct\": true,"),
                "{workload}: {line}"
            );
            for (name, unit) in metrics.iter() {
                let needle = format!("\"{name}\": {{\"value\": ");
                let at = line
                    .find(&needle)
                    .unwrap_or_else(|| panic!("{workload}: `{name}` missing from {line}"));
                let rest = &line[at + needle.len()..];
                let unit_at = rest.find("\"unit\": \"").expect("unit follows") + 9;
                assert_eq!(
                    &rest[unit_at..unit_at + unit.len() + 1],
                    format!("{unit}\"")
                );
            }
        }
    }
}

#[test]
fn cold_decide_never_hits_and_branch_counts_repeat() {
    let counts = |stdout: &str| -> String {
        stdout
            .lines()
            .find(|l| l.starts_with("stamp branch_counts:"))
            .expect("branch counts stamped")
            .to_owned()
    };
    let first = run("cold_decide", 11, true);
    let second = run("cold_decide", 11, true);
    assert_eq!(counts(&first), counts(&second));
    assert!(!counts(&first).contains("planned=0 "), "{}", counts(&first));
    let hit_ratio = "\"service.cache.hit_ratio\": {\"value\": 0,";
    assert!(
        result_line(&first).contains(hit_ratio),
        "{}",
        result_line(&first)
    );
    for name in ["planned", "evaluated", "skipped", "searches", "backtracks"] {
        let key = format!("\"core.branch.{name}_per_req\": {{\"value\": ");
        let value = |line: &str| {
            let at = line.find(&key).expect("count printed") + key.len();
            line[at..].split(',').next().expect("value").to_owned()
        };
        assert_eq!(
            value(result_line(&first)),
            value(result_line(&second)),
            "{name}"
        );
    }
}
