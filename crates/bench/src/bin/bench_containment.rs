//! Emits `BENCH_containment.json`: median wall-clock time of the Theorem
//! 3.1 decision procedure on Strategy::Full workloads, serial versus
//! parallel, so the perf trajectory of the branch engine is tracked across
//! PRs in a machine-readable file.
//!
//! The workload family `full(m, f)` is built so that `strategy_for`
//! selects the full Theorem 3.1 enumeration and every augmentation branch
//! admits a witness (the verdict is `Holds`, so the engine cannot
//! early-exit and the branch count equals the witness count):
//!
//! * `Q₁ = { x | ∃ y₁…y_m, u, z₁…z_f : yᵢ ∈ x.items & u ∉ x.items }` over a
//!   single terminal class — the `m` members feed the equality-augmentation
//!   lattice, the `f` floaters plus `x` are membership candidates (`2^(f+1)`
//!   subsets per consistent partition), and `u` pins a variable that no
//!   branch can make a member.
//! * `Q₂ = { x | ∃ y, u₂ : y ∈ x.items & u₂ ∉ x.items & y ≠ u₂ }` — one
//!   inequality plus one non-membership forces `Strategy::Full`; the
//!   mapping `y ↦ y₁, u₂ ↦ u` works in every branch.
//!
//! Usage: `bench_containment [OUT.json]` (default `BENCH_containment.json`
//! in the current directory). Honors `OOCQ_THREADS`, `OOCQ_BENCH_SAMPLES`,
//! `OOCQ_BENCH_MIN_SAMPLE_MS`, `OOCQ_BENCH_QUICK`.

use oocq_bench::{Harness, Stats};
use oocq_core::{strategy_for, Containment, Engine, EngineConfig, Strategy};
use oocq_query::{Query, QueryBuilder};
use oocq_schema::{AttrType, Schema, SchemaBuilder};

/// One terminal class `C` with a set attribute `items : {C}`.
fn bench_schema() -> Schema {
    let mut b = SchemaBuilder::new();
    let c = b.class("C").unwrap();
    b.attribute(c, "items", AttrType::SetOf(c)).unwrap();
    b.finish().unwrap()
}

/// The left query of `full(m, f)` (see module docs).
fn q1(schema: &Schema, members: usize, floaters: usize) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    b.range(x, [c]);
    for i in 0..members {
        let y = b.var(&format!("y{i}"));
        b.range(y, [c]);
        b.member(y, x, items);
    }
    let u = b.var("u");
    b.range(u, [c]);
    b.non_member(u, x, items);
    for i in 0..floaters {
        let z = b.var(&format!("z{i}"));
        b.range(z, [c]);
    }
    b.build()
}

/// The right query: membership + non-membership + inequality, so
/// `strategy_for` picks the full Theorem 3.1 enumeration.
fn q2(schema: &Schema) -> Query {
    let c = schema.class_id("C").unwrap();
    let items = schema.attr_id("items").unwrap();
    let mut b = QueryBuilder::new("x");
    let x = b.free();
    let y = b.var("y");
    let u2 = b.var("u2");
    b.range(x, [c]).range(y, [c]).range(u2, [c]);
    b.member(y, x, items);
    b.non_member(u2, x, items);
    b.neq_vars(y, u2);
    b.build()
}

struct Entry {
    name: String,
    branches: usize,
    verdict: &'static str,
    serial: Stats,
    parallel: Stats,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One certificate with both sides prepared inside the call, so every timed
/// iteration re-derives the whole decision.
fn decide(engine: &Engine, schema: &Schema, left: &Query, right: &Query) -> Containment {
    let ps = engine.prepare_schema(schema);
    engine
        .decide(&engine.prepare(&ps, left), &engine.prepare(&ps, right))
        .unwrap()
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_containment.json".into());
    let h = Harness::from_env();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Exercise the threaded path even on a single-core host (the engine
    // clamps workers to the branch count, never to the core count).
    let par_cfg = {
        let mut cfg = EngineConfig::from_env();
        cfg.threads = cfg.threads.max(2);
        cfg.min_parallel_branches = 1;
        cfg
    };
    let (serial_engine, par_engine) = (Engine::serial(), Engine::new(par_cfg.clone()));

    let schema = bench_schema();
    let right = q2(&schema);
    assert_eq!(
        strategy_for(&right),
        Strategy::Full,
        "workload must exercise the full Theorem 3.1 enumeration"
    );

    let mut entries = Vec::new();
    for (members, floaters) in [(1usize, 1usize), (2, 2), (2, 3), (3, 3)] {
        let left = q1(&schema, members, floaters);
        let name = format!("full_m{members}_f{floaters}");

        let serial_cert = decide(&serial_engine, &schema, &left, &right);
        let par_cert = decide(&par_engine, &schema, &left, &right);
        assert_eq!(
            serial_cert, par_cert,
            "{name}: parallel certificate diverges from serial"
        );
        let (branches, verdict) = match &serial_cert {
            Containment::Holds(ws) => (ws.len(), "holds"),
            Containment::HoldsVacuously(_) => (0, "holds_vacuously"),
            _ => (0, "fails"),
        };
        assert_eq!(verdict, "holds", "{name}: workload must decide Holds");
        assert!(
            branches >= 12,
            "{name}: only {branches} enumerable branches, need >= 12"
        );

        let serial = h.run("bench_containment", &format!("{name}/serial"), || {
            decide(&serial_engine, &schema, &left, &right)
        });
        let parallel = h.run(
            "bench_containment",
            &format!("{name}/parallel_t{}", par_cfg.threads),
            || decide(&par_engine, &schema, &left, &right),
        );
        entries.push(Entry {
            name,
            branches,
            verdict,
            serial,
            parallel,
        });
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema_version\": 1,\n");
    json.push_str("  \"workload\": \"theorem_3_1_full_enumeration\",\n");
    json.push_str("  \"strategy\": \"Full\",\n");
    json.push_str(&format!(
        "  \"host\": {{ \"cores\": {cores}, \"parallel_threads\": {} }},\n",
        par_cfg.threads
    ));
    json.push_str(&format!(
        "  \"measurement\": {{ \"samples\": {}, \"min_sample_ns\": {} }},\n",
        h.samples, h.min_sample_ns
    ));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"branches\": {}, \"verdict\": \"{}\", \
             \"serial_median_ns\": {:.0}, \"parallel_median_ns\": {:.0}, \
             \"speedup\": {:.3} }}{}\n",
            json_escape(&e.name),
            e.branches,
            e.verdict,
            e.serial.median_ns,
            e.parallel.median_ns,
            e.serial.median_ns / e.parallel.median_ns,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).unwrap();
    println!("wrote {out_path}");
}
