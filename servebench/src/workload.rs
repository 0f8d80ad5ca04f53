//! Seeded request streams for the three workloads.
//!
//! Everything here is a pure function of `(workload, seed, size)`: the
//! daemon only ever receives the generated lines. Each request carries how
//! its response is checked and how many decision-cache hits and misses it
//! should cause, so a run can assert key hygiene from `stats show`.

use crate::trace::Replay;
use oocq_gen::{random_terminal_positive, workload_schema, QueryParams, Rng, StdRng};
use oocq_oracle::{sweep_constrained_pair, sweep_pair};
use oocq_parser::{parse_query, parse_schema};
use oocq_query::{canonical_form, CanonicalQuery, Query, QueryBuilder};
use oocq_schema::Schema;
use oocq_service::escape;
use std::collections::{HashMap, HashSet};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    /// `schema`: a new session, answered inline by the reactor.
    Session,
    /// `query`: a (re-)binding, answered inline by the reactor.
    Define,
    /// `contains` / `equiv` / `minimize`: a decision on the worker pool.
    Decide,
}

/// How a response payload is checked.
#[derive(Clone, Debug)]
pub enum Check {
    /// The payload is known before the run (definitions, generator-proven
    /// verdicts, and verdicts the reference computed up front).
    Known(String),
    /// Computed after the run by the reference (see [`reference`]): apply
    /// `binds` (the `query` lines the decision's names are bound by), then
    /// the line.
    Reference { binds: Vec<String> },
}

#[derive(Clone, Debug)]
pub struct Req {
    pub line: String,
    pub verb: Verb,
    pub check: Check,
    /// Predicted decision-cache `(hits, misses)` of this request.
    pub lookups: (u64, u64),
}

impl Req {
    fn define(line: String, payload: String) -> Req {
        Req {
            line,
            verb: Verb::Define,
            check: Check::Known(payload),
            lookups: (0, 0),
        }
    }

    fn decide(line: String, check: Check, lookups: (u64, u64)) -> Req {
        Req {
            line,
            verb: Verb::Decide,
            check,
            lookups,
        }
    }
}

/// What one workload sends, in order: `fixture` to a first daemon (warm
/// restarts only), then `setup` and `warmup` on a set-up connection, then
/// each caller's script on its own connection while the clock runs.
pub struct Plan {
    pub fixture: Vec<Req>,
    pub setup: Vec<Req>,
    pub warmup: Vec<Req>,
    pub callers: Vec<Vec<Req>>,
    /// Callers restart their script when it runs out (the hot set repeats);
    /// otherwise a caller stops early, which the run reports.
    pub cycle: bool,
    /// Distinct containment keys the fixture decides (warm_serve).
    pub hot_keys: u64,
    /// Sessions with a persistent cache directory (warm_serve).
    pub persistent: bool,
}

/// Per-workload sizes; `smoke` shrinks everything for the self-check.
#[derive(Clone, Copy, Debug)]
pub struct Size {
    pub seconds: u64,
    pub smoke: bool,
}

pub const WORKLOADS: [&str; 3] = ["cold_decide", "warm_serve", "session_churn"];

pub fn plan(workload: &str, seed: u64, size: Size) -> Result<Plan, String> {
    match workload {
        "cold_decide" => Ok(cold_decide(seed, size)),
        "warm_serve" => Ok(warm_serve(seed, size)),
        "session_churn" => Ok(session_churn(seed, size)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

fn schema_line(session: &str, schema: &Schema) -> Req {
    let classes = schema.class_count();
    Req {
        verb: Verb::Session,
        ..Req::define(
            format!("schema {session} {}", escape(&schema.to_string())),
            format!("session {session}: {classes} classes"),
        )
    }
}

fn query_line(session: &str, name: &str, text: &str) -> Req {
    Req::define(
        format!("query {session} {name} {}", escape(text)),
        format!("query {name} defined in session {session}"),
    )
}

/// Render a query and parse it back, so the text the daemon receives is
/// known to denote exactly the generated query (same canonical form).
fn round_trip(schema: &Schema, q: &Query) -> Option<(String, CanonicalQuery)> {
    let text = q.display(schema).to_string();
    let parsed = parse_query(schema, &text).ok()?;
    let canon = canonical_form(&parsed);
    (canon == canonical_form(q)).then_some((text, canon))
}

/// The reference payload for `line` after `binds`: the core engine over
/// the same texts, without a cache (see [`Replay::reference`]).
pub fn reference(engine: &mut Replay, binds: &[String], line: &str) -> Result<String, String> {
    for b in binds {
        engine.step(0, b)?;
    }
    engine.step(0, line)
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        v.swap(i, j);
    }
}

// ---------------------------------------------------------------- cold_decide

/// The `full(m, f)` family's schema is one class with a set attribute.
/// The family runs on [`FULL_SESSIONS`] copies that differ only in the
/// class name: the schema fingerprint is part of the cache key, so the
/// `i`-th use of a shape goes to copy `i` and is still a distinct key, at
/// the same cost.
const FULL_SESSIONS: usize = 512;

/// Sweep schemas take turns on this many session names: a schema that is
/// not live is defined into the next name, replacing the schema there.
/// The daemon's live state then stops growing early in the run, so
/// `peak_rss_mb` does not follow how many decisions a run got through.
const SWEEP_SLOTS: usize = 64;

fn full_schema(k: usize) -> String {
    format!("class C{k} {{ items: {{C{k}}}; }}")
}

/// The right side of every family pair: membership, non-membership and an
/// inequality force the full Theorem 3.1 walk (`Strategy::Full`).
fn full_right(k: usize) -> String {
    format!(
        "{{ x | exists y, u2: x in C{k} & y in C{k} & u2 in C{k} & y in x.items & \
         u2 not in x.items & y != u2 }}"
    )
}

/// `(members, floaters, decorations)` strata, cycled in this fixed order
/// so every seed and every stretch of a run draws the same cost mix; only
/// which decorations varies. Bigger shapes spread decision times over two
/// orders of magnitude (up to seconds at six variables), which would make
/// the tail percentile a draw of the seed rather than a property of the
/// engine.
const FULL_STRATA: [(usize, usize, usize); 6] = [
    (1, 2, 2),
    (2, 1, 3),
    (1, 3, 2),
    (1, 2, 3),
    (2, 1, 2),
    (1, 3, 3),
];

/// The decorations of one generalized `full(m, f)` left query: `n` of the
/// extra non-members, floater inequalities and floater memberships, drawn
/// at random. Every decoration only strengthens the query, so containment
/// in [`full_right`] holds: `y ↦ y0, u2 ↦ u` is a witness, and `y0 ≠ u`
/// follows from `y0 ∈ x.items`, `u ∉ x.items`.
fn full_decorations(rng: &mut StdRng, members: usize, floaters: usize, n: usize) -> Vec<String> {
    let mut decorations = Vec::new();
    for j in 0..floaters {
        decorations.push(format!("z{j} not in x.items"));
        for i in 0..members {
            decorations.push(format!("z{j} not in y{i}.items"));
            decorations.push(format!("z{j} != y{i}"));
            decorations.push(format!("z{j} in y{i}.items"));
        }
        decorations.push(format!("z{j} != u"));
        for l in j + 1..floaters {
            decorations.push(format!("z{j} != z{l}"));
        }
    }
    shuffle(rng, &mut decorations);
    decorations.truncate(n);
    decorations
}

/// The left query text: `m` members of `x.items`, one pinned non-member
/// `u`, `f` floaters, and the decorations, over class `C{k}`.
fn full_text(k: usize, members: usize, floaters: usize, decorations: &[String]) -> String {
    let mut vars = Vec::new();
    let mut atoms = vec![format!("x in C{k}")];
    for i in 0..members {
        vars.push(format!("y{i}"));
        atoms.push(format!("y{i} in C{k} & y{i} in x.items"));
    }
    vars.push("u".to_owned());
    atoms.push(format!("u in C{k} & u not in x.items"));
    for j in 0..floaters {
        vars.push(format!("z{j}"));
        atoms.push(format!("z{j} in C{k}"));
    }
    atoms.extend(decorations.iter().cloned());
    format!(
        "{{ x | exists {}: {} }}",
        vars.join(", "),
        atoms.join(" & ")
    )
}

/// The positive part of a family left query: `x`, its members and the
/// floaters with their memberships, without the non-member and the
/// inequalities. The floaters not pinned by a membership fold away when
/// it is minimized.
fn full_positive(k: usize, members: usize, floaters: usize, decorations: &[String]) -> String {
    let mut vars = Vec::new();
    let mut atoms = vec![format!("x in C{k}")];
    for i in 0..members {
        vars.push(format!("y{i}"));
        atoms.push(format!("y{i} in C{k} & y{i} in x.items"));
    }
    for j in 0..floaters {
        vars.push(format!("z{j}"));
        atoms.push(format!("z{j} in C{k}"));
    }
    atoms.extend(
        decorations
            .iter()
            .filter(|d| !d.contains("not in") && !d.contains("!="))
            .cloned(),
    );
    format!(
        "{{ x | exists {}: {} }}",
        vars.join(", "),
        atoms.join(" & ")
    )
}

/// Distinct containment questions, one caller. Four in five come from the
/// `full(m, f)` family (they hold, so the whole branch space is walked);
/// the fifth alternates between oracle sweep pairs and constrained sweep
/// pairs, which cover refutations, every strategy tier and the constraint
/// theory. Every eighth family pair also minimizes the positive part of
/// its left side. A pair whose cache key (schema fingerprint + both
/// canonical forms) was already generated is dropped, and so is a
/// minimization of a text minimized before, so no request can hit.
fn cold_decide(seed: u64, size: Size) -> Plan {
    // About twice what the fastest runs here decide per second, so the
    // caller does not run out of script before the clock.
    let pairs = if size.smoke {
        40
    } else {
        800 * size.seconds as usize
    };
    // The warm-up pairs are the same for every seed, so every run's set-up
    // does the same work; the timed pairs switch to the run's seed.
    let mut rng = StdRng::seed_from_u64(0xc01d);
    let mut sweep_seed = 2_000_000;
    let mut timed_seeds = Some((
        StdRng::seed_from_u64(seed ^ 0xc01d),
        seed.wrapping_mul(0x9e37_79b9) % 1_000_000,
    ));
    let mut refs = Replay::reference();
    let mut seen: HashSet<(String, CanonicalQuery, CanonicalQuery)> = HashSet::new();
    let mut minimized: HashSet<String> = HashSet::new();
    // Sessions each family shape has used so far (its key is new in each).
    let mut uses: HashMap<CanonicalQuery, usize> = HashMap::new();
    let mut setup = Vec::new();
    let mut family_schemas = Vec::new();
    for k in 0..FULL_SESSIONS {
        let schema = parse_schema(&full_schema(k)).expect("family schema parses");
        setup.push(schema_line(&format!("f{k}"), &schema));
        parse_query(&schema, &full_right(k)).expect("family right side parses");
        setup.push(query_line(&format!("f{k}"), "R", &full_right(k)));
        family_schemas.push((k, schema));
    }
    // Which schema each sweep session name holds, and where each live
    // schema is.
    let mut slots: Vec<Option<String>> = vec![None; SWEEP_SLOTS];
    let mut next_slot = 0usize;
    let mut sessions: HashMap<String, String> = HashMap::new();
    let mut script = Vec::new();
    let mut warmup = Vec::new();
    let mut sample_left = 0usize;
    let warm_pairs = if size.smoke { 2 } else { 8 };
    let (mut made, mut family, mut attempts) = (0usize, 0usize, 0usize);
    while made < pairs + warm_pairs && attempts < 50 * (pairs + warm_pairs) {
        attempts += 1;
        if made == warm_pairs {
            if let Some((r, s)) = timed_seeds.take() {
                (rng, sweep_seed) = (r, s);
            }
        }
        let out = if made < warm_pairs {
            &mut warmup
        } else {
            &mut script
        };
        if made % 5 == 4 {
            // A sweep pair, on the session of its schema.
            sweep_seed += 1;
            let params = QueryParams { vars: 4, atoms: 5 };
            let (schema, q1, q2) = if sweep_seed.is_multiple_of(2) {
                sweep_pair(sweep_seed, &params, 2)
            } else {
                sweep_constrained_pair(sweep_seed, &params, 2)
            };
            let (Some((t1, c1)), Some((t2, c2))) =
                (round_trip(&schema, &q1), round_trip(&schema, &q2))
            else {
                continue;
            };
            let fp = schema.to_string();
            if seen.contains(&(fp.clone(), c1.clone(), c2.clone())) {
                continue;
            }
            // A schema that is not live is defined in the stream, just
            // before its pair, so the set-up does not grow with the script.
            let session = match sessions.get(&fp) {
                Some(s) => s.clone(),
                None => {
                    let slot = next_slot % SWEEP_SLOTS;
                    let name = format!("s{slot}");
                    let def = schema_line(&name, &schema);
                    if refs.step(0, &def.line).is_err() {
                        continue;
                    }
                    next_slot += 1;
                    if let Some(old) = slots[slot].replace(fp.clone()) {
                        sessions.remove(&old);
                    }
                    sessions.insert(fp.clone(), name.clone());
                    out.push(def);
                    name
                }
            };
            let bl = query_line(&session, "L", &t1);
            let br = query_line(&session, "R", &t2);
            let line = format!("contains {session} L R");
            let Ok(payload) = reference(&mut refs, &[bl.line.clone(), br.line.clone()], &line)
            else {
                continue;
            };
            seen.insert((fp, c1, c2));
            out.push(bl);
            out.push(br);
            out.push(Req::decide(line, Check::Known(payload), (0, 1)));
        } else {
            let (m, f, n) = FULL_STRATA[family % FULL_STRATA.len()];
            let decorations = full_decorations(&mut rng, m, f, n);
            let (_, schema0) = &family_schemas[0];
            let shape = parse_query(schema0, &full_text(0, m, f, &decorations))
                .expect("family left side parses");
            let k = uses.entry(canonical_form(&shape)).or_insert(0);
            if *k == FULL_SESSIONS {
                continue;
            }
            let (k, text) = (*k, full_text(*k, m, f, &decorations));
            uses.insert(canonical_form(&shape), k + 1);
            family += 1;
            let bind = query_line(&format!("f{k}"), "L", &text);
            // One family pair in sixteen is re-decided after the run by the
            // reference engine; the rest are checked against the proof.
            let check = if sample_left == 0 {
                Check::Reference {
                    binds: vec![bind.line.clone()],
                }
            } else {
                Check::Known("holds".to_owned())
            };
            sample_left = (sample_left + 1) % 16;
            out.push(bind);
            out.push(Req::decide(format!("contains f{k} L R"), check, (0, 1)));
            // Every eighth family pair also minimizes the left side's
            // positive part, when that text is new: the minimizer runs
            // on this workload only.
            let positive = full_positive(k, m, f, &decorations);
            if family % 8 == 0 && minimized.insert(positive.clone()) {
                let bind = query_line(&format!("f{k}"), "P", &positive);
                let check = Check::Reference {
                    binds: vec![bind.line.clone()],
                };
                out.push(bind);
                out.push(Req::decide(format!("minimize f{k} P"), check, (0, 1)));
            }
        }
        made += 1;
    }
    Plan {
        fixture: Vec::new(),
        setup,
        warmup,
        callers: vec![script],
        cycle: false,
        hot_keys: 0,
        persistent: false,
    }
}

// ----------------------------------------------------------------- warm_serve

/// Sweep-pair seeds of the hot set: the three paper sample schemas
/// (`seed % 4` in 0..3) plus a handful of seeded random schemas.
fn hot_seed_ok(seed: u64, random_sessions: &mut usize) -> bool {
    if seed % 4 != 3 {
        return true;
    }
    if *random_sessions < 4 {
        *random_sessions += 1;
        return true;
    }
    false
}

/// A restarted daemon serving a hot set. The fixture decides both
/// directions of every hot pair on a first daemon with a cache directory;
/// the timed daemon replays that log, so every timed lookup is a tier-1
/// hit. Pairs whose keys overlap an earlier pair's are dropped, so each
/// key belongs to one caller and the hit count is exact.
fn warm_serve(seed: u64, size: Size) -> Plan {
    let pairs = if size.smoke { 40 } else { 400 };
    let mut refs = Replay::reference();
    let mut sessions: HashMap<String, String> = HashMap::new();
    let mut counts: HashMap<String, usize> = HashMap::new();
    let mut keys: HashSet<(String, CanonicalQuery, CanonicalQuery)> = HashSet::new();
    let mut setup = Vec::new();
    let mut fixture_binds = Vec::new();
    let mut fixture_decisions = Vec::new();
    let mut hot: Vec<Req> = Vec::new();
    let mut random_sessions = 0usize;
    let mut s = seed.wrapping_mul(0x2545_f491) % 1_000_000;
    let params = QueryParams { vars: 3, atoms: 3 };
    while hot.len() < 2 * pairs {
        s += 1;
        if !hot_seed_ok(s, &mut random_sessions) {
            continue;
        }
        let (schema, q1, q2) = sweep_pair(s, &params, 1);
        let (Some((t1, c1)), Some((t2, c2))) = (round_trip(&schema, &q1), round_trip(&schema, &q2))
        else {
            continue;
        };
        if c1 == c2 {
            continue;
        }
        let fp = schema.to_string();
        let k12 = (fp.clone(), c1.clone(), c2.clone());
        let k21 = (fp.clone(), c2, c1);
        if keys.contains(&k12) || keys.contains(&k21) {
            continue;
        }
        let session = match sessions.get(&fp) {
            Some(name) => name.clone(),
            None => {
                let name = format!("h{}", sessions.len());
                let def = schema_line(&name, &schema);
                refs.step(0, &def.line).expect("hot schema defines");
                setup.push(def);
                sessions.insert(fp.clone(), name.clone());
                name
            }
        };
        let n = counts.entry(session.clone()).or_default();
        let (a, b) = (format!("a{n}"), format!("b{n}"));
        *n += 1;
        let da = query_line(&session, &a, &t1);
        let db = query_line(&session, &b, &t2);
        refs.step(0, &da.line).expect("hot query defines");
        refs.step(0, &db.line).expect("hot query defines");
        let forward = format!("contains {session} {a} {b}");
        let backward = format!("contains {session} {b} {a}");
        let equiv = format!("equiv {session} {a} {b}");
        let (Ok(p_fwd), Ok(p_bwd), Ok(p_eq)) = (
            refs.step(0, &forward),
            refs.step(0, &backward),
            refs.step(0, &equiv),
        ) else {
            continue;
        };
        keys.insert(k12);
        keys.insert(k21);
        setup.push(da.clone());
        setup.push(db.clone());
        fixture_binds.push(da);
        fixture_binds.push(db);
        fixture_decisions.push(Req::decide(
            forward.clone(),
            Check::Known(p_fwd.clone()),
            (0, 1),
        ));
        fixture_decisions.push(Req::decide(backward, Check::Known(p_bwd), (0, 1)));
        // `equiv` looks up the forward key, and the backward key only when
        // the forward containment holds.
        let eq_lookups = if p_fwd == "holds" { 2 } else { 1 };
        hot.push(Req::decide(forward, Check::Known(p_fwd), (1, 0)));
        hot.push(Req::decide(equiv, Check::Known(p_eq), (eq_lookups, 0)));
    }
    // Sessions first, then bindings: the fixture needs the same state.
    let mut fixture: Vec<Req> = setup
        .iter()
        .filter(|r| r.line.starts_with("schema "))
        .cloned()
        .collect();
    fixture.extend(fixture_binds);
    fixture.extend(fixture_decisions);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3a3);
    let mut callers = vec![Vec::new(), Vec::new()];
    for (i, pair) in hot.chunks(2).enumerate() {
        callers[i % 2].extend(pair.iter().cloned());
    }
    for c in &mut callers {
        shuffle(&mut rng, c);
    }
    Plan {
        fixture,
        warmup: hot,
        setup,
        callers,
        cycle: true,
        hot_keys: keys.len() as u64,
        persistent: true,
    }
}

// -------------------------------------------------------------- session_churn

/// A base shape a caller keeps re-binding: its text variants, the catalog
/// query it is compared with, and which decision follows a re-bind.
struct Shape {
    variants: Vec<(String, String)>,
    canon: CanonicalQuery,
    partner: usize,
    kind: usize,
}

/// Rebuild `q` with its atoms in a seeded order and its bound variables
/// renamed: an isomorphic copy with different text.
fn variant(rng: &mut StdRng, q: &Query, tag: usize) -> Query {
    let mut b = QueryBuilder::new(&format!("w{tag}x"));
    for i in 1..q.var_count() {
        b.var(&format!("w{tag}v{i}"));
    }
    let mut atoms = q.atoms().to_vec();
    shuffle(rng, &mut atoms);
    for a in atoms {
        b.atom(a);
    }
    b.build()
}

const CATALOG_SESSION: &str = "cat";
const ROTATING: usize = 4;

/// One caller on `session_churn`. With two, a decision mostly waited for
/// the other caller's bind, which the reactor answers inline, and the tail
/// measured how the two happened to coincide on the shared host.
const CHURN_CALLERS: usize = 1;

/// A catalog session of ~2,000 named queries, then a caller that keeps
/// re-binding a few rotating names and immediately decides on the new
/// binding. Most new texts are renamed and reordered variants of shapes
/// the caller used before (containment hits by isomorphism; minimization
/// hits only on an exact repeat), one in twenty-five is a new shape that
/// misses and inserts. Shapes are unique per caller, so each caller's
/// hits and misses are exact whatever the interleaving.
fn session_churn(seed: u64, size: Size) -> Plan {
    let catalog = if size.smoke { 200 } else { 2000 };
    // About twice what the fastest runs here get through per second.
    let steps = if size.smoke {
        300
    } else {
        5000 * size.seconds as usize
    };
    let schema = workload_schema(4);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55);
    let mut setup = vec![schema_line(CATALOG_SESSION, &schema)];
    let mut catalog_canon = Vec::new();
    let mut taken: HashSet<CanonicalQuery> = HashSet::new();
    while catalog_canon.len() < catalog {
        let vars = rng.gen_range(2..5);
        let q = random_terminal_positive(&mut rng, &schema, &QueryParams { vars, atoms: 3 });
        let Some((text, canon)) = round_trip(&schema, &q) else {
            continue;
        };
        setup.push(query_line(
            CATALOG_SESSION,
            &format!("k{}", catalog_canon.len()),
            &text,
        ));
        taken.insert(canon.clone());
        catalog_canon.push(canon);
    }
    let mut warmup = Vec::new();
    let mut callers = Vec::new();
    for c in 0..CHURN_CALLERS {
        let mut shapes: Vec<Shape> = Vec::new();
        let mut seen_contains: HashSet<(CanonicalQuery, CanonicalQuery)> = HashSet::new();
        let mut seen_minimize: HashSet<String> = HashSet::new();
        let mut script = Vec::new();
        let initial = 16;
        let mut step = 0usize;
        while step < initial + steps {
            let name = format!("c{c}r{}", step % ROTATING);
            let new_shape = shapes.len() < initial || rng.gen_range(0..25) == 0;
            let index = if new_shape {
                let vars = rng.gen_range(3..5);
                let q =
                    random_terminal_positive(&mut rng, &schema, &QueryParams { vars, atoms: 4 });
                let Some((_, canon)) = round_trip(&schema, &q) else {
                    continue;
                };
                if !taken.insert(canon.clone()) {
                    continue;
                }
                let mut variants = Vec::new();
                for t in 0..2 {
                    let v = variant(&mut rng, &q, t);
                    let Some((text, vc)) = round_trip(&schema, &v) else {
                        break;
                    };
                    if vc != canon {
                        break;
                    }
                    let rendered = parse_query(&schema, &text)
                        .expect("variant parses")
                        .display(&schema)
                        .to_string();
                    variants.push((text, rendered));
                }
                if variants.len() < 2 {
                    continue;
                }
                shapes.push(Shape {
                    variants,
                    canon,
                    partner: rng.gen_range(0..catalog),
                    kind: rng.gen_range(0..4),
                });
                shapes.len() - 1
            } else {
                rng.gen_range(0..shapes.len())
            };
            let shape = &shapes[index];
            let (text, rendered) = &shape.variants[rng.gen_range(0..shape.variants.len())];
            let bind = query_line(CATALOG_SESSION, &name, text);
            let partner = &catalog_canon[shape.partner];
            let (line, hit) = match shape.kind {
                0 => (
                    format!("minimize {CATALOG_SESSION} {name}"),
                    !seen_minimize.insert(rendered.clone()),
                ),
                1 => (
                    format!("contains {CATALOG_SESSION} k{} {name}", shape.partner),
                    !seen_contains.insert((partner.clone(), shape.canon.clone())),
                ),
                _ => (
                    format!("contains {CATALOG_SESSION} {name} k{}", shape.partner),
                    !seen_contains.insert((shape.canon.clone(), partner.clone())),
                ),
            };
            let check = Check::Reference {
                binds: vec![bind.line.clone()],
            };
            let lookups = if hit { (1, 0) } else { (0, 1) };
            let out = if step < initial {
                &mut warmup
            } else {
                &mut script
            };
            out.push(bind);
            out.push(Req::decide(line, check, lookups));
            step += 1;
        }
        callers.push(script);
    }
    Plan {
        fixture: Vec::new(),
        setup,
        warmup,
        callers,
        cycle: false,
        hot_keys: 0,
        persistent: false,
    }
}
