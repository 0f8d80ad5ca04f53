//! The traced run's in-process replay.
//!
//! A workload's stream goes through the layers' public functions in the
//! order `ServiceEngine::execute` uses them — protocol parse, session
//! lookup, query parse and prepare, canonical forms, cache lookup, on a
//! miss analysis, satisfiability and the branch engine, cache insert,
//! render — with a span around each call. Spans stay in memory until the
//! replay ends. A twin `ServiceEngine` executes every request as well: its
//! `wall_us` is what the decision spans must add up to, and its payload is
//! what the replay's own answer must equal.

use oocq_core::{
    expand_satisfiable, theory_stats, BranchStats, Budget, ConstraintTheory, CoreError,
    DecisionCache, Engine, EngineConfig, PreparedQuery, PreparedSchema, Side, Theory,
};
use oocq_parser::{parse_query, parse_schema};
use oocq_query::normalize;
use oocq_service::{
    parse_request, render_response, CanonicalDecisionCache, Request, RequestStats, ServiceEngine,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layer a span measures; its metric name is [`Layer::metric`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    ProtocolParse,
    ProtocolRender,
    EngineSnapshot,
    EngineDefine,
    EngineExecute,
    ParseQuery,
    Analysis,
    Satisfiability,
    Canonical,
    CacheLookup,
    CacheInsert,
    TheoryCompile,
    Expand,
    BranchDecide,
    Minimize,
}

pub const LAYERS: [Layer; 15] = [
    Layer::ProtocolParse,
    Layer::ProtocolRender,
    Layer::EngineSnapshot,
    Layer::EngineDefine,
    Layer::EngineExecute,
    Layer::ParseQuery,
    Layer::Analysis,
    Layer::Satisfiability,
    Layer::Canonical,
    Layer::CacheLookup,
    Layer::CacheInsert,
    Layer::TheoryCompile,
    Layer::Expand,
    Layer::BranchDecide,
    Layer::Minimize,
];

impl Layer {
    pub fn metric(self) -> &'static str {
        match self {
            Layer::ProtocolParse => "service.protocol.parse_us",
            Layer::ProtocolRender => "service.protocol.render_us",
            Layer::EngineSnapshot => "service.engine.snapshot_us",
            Layer::EngineDefine => "service.engine.define_us",
            Layer::EngineExecute => "service.engine.execute_us",
            Layer::ParseQuery => "parser.parse_query_us",
            Layer::Analysis => "core.engine.analysis_us",
            Layer::Satisfiability => "core.engine.satisfiability_us",
            Layer::Canonical => "query.canonical.canonical_us",
            Layer::CacheLookup => "service.cache.lookup_us",
            Layer::CacheInsert => "service.cache.insert_us",
            Layer::TheoryCompile => "core.theory.compile_us",
            Layer::Expand => "core.expand.expand_us",
            Layer::BranchDecide => "core.branch.decide_us",
            Layer::Minimize => "core.minimize.minimize_us",
        }
    }

    /// Spans of work that `ServiceEngine::execute` does itself, so their
    /// sum per request reconciles with its `wall_us`. Probes of layers the
    /// branch engine calls internally (theory, expansion) are excluded:
    /// that work is already inside [`Layer::BranchDecide`].
    fn inside_execute(self) -> bool {
        matches!(
            self,
            Layer::Analysis
                | Layer::Satisfiability
                | Layer::Canonical
                | Layer::CacheLookup
                | Layer::CacheInsert
                | Layer::BranchDecide
                | Layer::Minimize
        )
    }
}

/// One recorded span: the request it belongs to, the layer, its duration.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub request: u32,
    pub layer: Layer,
    pub ns: u64,
}

/// Counts recorded at the same boundaries as the spans.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub decisions: u64,
    pub branch: BranchStats,
    pub expansion_branches: u64,
    pub theory_rewrites: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub evictions: u64,
}

fn add_branch(total: &mut BranchStats, after: BranchStats, before: BranchStats) {
    total.branches_planned += after.branches_planned - before.branches_planned;
    total.branches_evaluated += after.branches_evaluated - before.branches_evaluated;
    total.branches_skipped += after.branches_skipped - before.branches_skipped;
    total.warm_start_hits += after.warm_start_hits - before.warm_start_hits;
    total.mapping_searches += after.mapping_searches - before.mapping_searches;
    total.mapping_backtracks += after.mapping_backtracks - before.mapping_backtracks;
}

struct Session {
    schema: PreparedSchema,
    queries: HashMap<String, PreparedQuery>,
}

/// Span recording state, apart from the replay's model so a timed closure
/// can borrow the model while the recorder takes the span.
struct Recorder {
    on: bool,
    request: u32,
    spans: Vec<Span>,
}

fn timed<T>(rec: &mut Recorder, layer: Layer, f: impl FnOnce() -> T) -> T {
    if !rec.on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    rec.spans.push(Span {
        request: rec.request,
        layer,
        ns: start.elapsed().as_nanos() as u64,
    });
    out
}

/// The replay's own model of the service: sessions of prepared queries, a
/// decision cache, and a cache-less serial engine for misses. Without a
/// cache it is the reference the daemon's answers are checked against:
/// the core engine over the same texts, sharing none of the service's
/// execution or caching code.
pub struct Replay {
    sessions: HashMap<String, Session>,
    cache: Option<CanonicalDecisionCache>,
    engine: Engine,
    twin: Option<ServiceEngine>,
    rec: Recorder,
    pub counts: Counts,
    /// Cache counters when recording started: (hits, lookups, evictions).
    base: (u64, u64, u64),
    /// Sum of the twin's `wall_us` over decisions, and of the decision
    /// spans inside `execute`, in ns.
    pub twin_wall_ns: u64,
    pub inside_ns: u64,
    /// Time spent in twin calls, excluded from the replay's own time.
    pub twin_ns: u64,
    pub mismatches: Vec<String>,
}

/// Open a decision cache the way the daemon does: memory-only, or over a
/// persistent directory (returning how long the log replay took).
pub fn open_cache(dir: Option<&Path>) -> Result<(CanonicalDecisionCache, Duration), String> {
    let start = Instant::now();
    let cache = match dir {
        Some(d) => CanonicalDecisionCache::with_persistence(
            oocq_service::DEFAULT_CAPACITY,
            d,
            oocq_service::DEFAULT_DISK_CAPACITY,
        )
        .map_err(|e| format!("open cache {}: {e}", d.display()))?,
        None => CanonicalDecisionCache::new(oocq_service::DEFAULT_CAPACITY),
    };
    Ok((cache, start.elapsed()))
}

fn core(e: CoreError) -> String {
    e.to_string()
}

fn cache_totals(cache: Option<&CanonicalDecisionCache>) -> (u64, u64, u64) {
    let Some(cache) = cache else {
        return (0, 0, 0);
    };
    let s = cache.stats();
    let hits = s.contains_hits + s.minimize_hits;
    (
        hits,
        hits + s.contains_misses + s.minimize_misses,
        s.evictions,
    )
}

impl Replay {
    /// A replay over `cache`. Giving the twin engine's cache makes it a
    /// traced replay: spans, counts, probes and the twin are on.
    pub fn new(
        cache: Option<CanonicalDecisionCache>,
        twin_cache: Option<CanonicalDecisionCache>,
    ) -> Replay {
        Replay {
            sessions: HashMap::new(),
            cache,
            engine: Engine::new(EngineConfig::serial()),
            rec: Recorder {
                on: twin_cache.is_some(),
                request: 0,
                spans: Vec::new(),
            },
            twin: twin_cache
                .map(|c| ServiceEngine::with_cache(EngineConfig::serial(), Some(Arc::new(c)))),
            counts: Counts::default(),
            base: (0, 0, 0),
            twin_wall_ns: 0,
            inside_ns: 0,
            twin_ns: 0,
            mismatches: Vec::new(),
        }
    }

    /// The cache-less, untraced reference.
    pub fn reference() -> Replay {
        Replay::new(None, None)
    }

    pub fn cache(&self) -> Option<&CanonicalDecisionCache> {
        self.cache.as_ref()
    }

    pub fn spans(&self) -> &[Span] {
        &self.rec.spans
    }

    /// Drop what set-up and warm-up recorded; measure from here on.
    pub fn start_recording(&mut self) {
        self.rec.spans.clear();
        self.counts = Counts::default();
        self.twin_wall_ns = 0;
        self.inside_ns = 0;
        self.twin_ns = 0;
        self.base = cache_totals(self.cache.as_ref());
    }

    /// Fold the cache counters since [`Replay::start_recording`] into the
    /// counts.
    pub fn finish_recording(&mut self) {
        let (hits, lookups, evictions) = cache_totals(self.cache.as_ref());
        self.counts.cache_hits = hits - self.base.0;
        self.counts.cache_lookups = lookups - self.base.1;
        self.counts.evictions = evictions - self.base.2;
    }

    /// Run one request line through the layers; returns its payload.
    pub fn step(&mut self, seq: u64, line: &str) -> Result<String, String> {
        let req = timed(&mut self.rec, Layer::ProtocolParse, || parse_request(line))?;
        let mut stats = RequestStats::default();
        let result = match &req {
            Request::DefineSchema { session, text } => {
                if let Some(twin) = &self.twin {
                    let start = Instant::now();
                    let _ = timed(&mut self.rec, Layer::EngineDefine, || {
                        twin.define_schema(session, text)
                    });
                    self.twin_ns += start.elapsed().as_nanos() as u64;
                }
                let schema = parse_schema(text).map_err(|e| format!("parse error at {e}"))?;
                let classes = schema.class_count();
                self.sessions.insert(
                    session.clone(),
                    Session {
                        schema: PreparedSchema::from_arc(Arc::new(schema)),
                        queries: HashMap::new(),
                    },
                );
                Ok(format!("session {session}: {classes} classes"))
            }
            Request::DefineQuery {
                session,
                name,
                text,
            } => {
                if let Some(twin) = &self.twin {
                    let start = Instant::now();
                    let _ = timed(&mut self.rec, Layer::EngineDefine, || {
                        twin.define_query(session, name, text)
                    });
                    self.twin_ns += start.elapsed().as_nanos() as u64;
                }
                let ses = self
                    .sessions
                    .get_mut(session)
                    .ok_or_else(|| format!("unknown session `{session}`"))?;
                let q = timed(&mut self.rec, Layer::ParseQuery, || {
                    parse_query(ses.schema.schema(), text)
                })
                .map_err(|e| format!("parse error at {e}"))?;
                ses.queries
                    .insert(name.clone(), PreparedQuery::new(&ses.schema, q));
                Ok(format!("query {name} defined in session {session}"))
            }
            _ => {
                self.counts.decisions += 1;
                // Alternate which of the twin and the replay runs first, so
                // neither is always the one that finds the caches warm.
                let twin_first = self.rec.request.is_multiple_of(2);
                let mut result = None;
                if !twin_first {
                    result = Some(self.decide(&req));
                }
                let mut twin_result = None;
                if let Some(twin) = &self.twin {
                    let start = Instant::now();
                    let snapshot = timed(&mut self.rec, Layer::EngineSnapshot, || {
                        twin.snapshot_for(&req)
                    })?;
                    let (r, st) = timed(&mut self.rec, Layer::EngineExecute, || {
                        twin.execute(&req, snapshot.as_ref())
                    });
                    self.twin_ns += start.elapsed().as_nanos() as u64;
                    self.twin_wall_ns += st.wall_us * 1000;
                    stats = st;
                    twin_result = Some(r);
                }
                let result = match result {
                    Some(r) => r,
                    None => self.decide(&req),
                };
                let id = self.rec.request;
                self.inside_ns += self
                    .rec
                    .spans
                    .iter()
                    .rev()
                    .take_while(|s| s.request == id)
                    .filter(|s| s.layer.inside_execute())
                    .map(|s| s.ns)
                    .sum::<u64>();
                if let Some(t) = twin_result {
                    if t != result {
                        self.mismatches
                            .push(format!("`{line}`: replay {result:?}, service {t:?}"));
                    }
                }
                result
            }
        };
        let _ = timed(&mut self.rec, Layer::ProtocolRender, || {
            render_response(seq, &result, Some(&stats))
        });
        self.rec.request += 1;
        result
    }

    fn prepared(
        &self,
        session: &str,
        name: &str,
    ) -> Result<(PreparedQuery, PreparedSchema), String> {
        let ses = self
            .sessions
            .get(session)
            .ok_or_else(|| format!("unknown session `{session}`"))?;
        let p = ses
            .queries
            .get(name)
            .ok_or_else(|| format!("unknown query `{name}` in session `{session}`"))?;
        Ok((p.clone(), ses.schema.clone()))
    }

    fn decide(&mut self, req: &Request) -> Result<String, String> {
        match req {
            Request::Contains { session, q1, q2 } | Request::Equivalent { session, q1, q2 } => {
                let (p1, _) = self.prepared(session, q1)?;
                let (p2, _) = self.prepared(session, q2)?;
                let budget = Budget::unlimited();
                timed(&mut self.rec, Layer::Canonical, || {
                    p1.try_canonical_form(&budget)?;
                    p2.try_canonical_form(&budget).map(|_| ())
                })
                .map_err(core)?;
                let mut holds = self.contains(&p1, &p2)?;
                if holds && matches!(req, Request::Equivalent { .. }) {
                    holds = self.contains(&p2, &p1)?;
                }
                Ok(if holds { "holds" } else { "FAILS" }.to_owned())
            }
            Request::Minimize { session, query } => {
                let (p, schema) = self.prepared(session, query)?;
                let cache = self.cache.as_ref();
                let hit = timed(&mut self.rec, Layer::CacheLookup, || {
                    cache.and_then(|c| c.get_minimized_prepared(&p))
                });
                let m = match hit {
                    Some(m) => m,
                    None => {
                        let engine = &self.engine;
                        let m = timed(&mut self.rec, Layer::Minimize, || engine.minimize(&p))
                            .map_err(core)?;
                        if let Some(c) = cache {
                            timed(&mut self.rec, Layer::CacheInsert, || {
                                c.put_minimized_prepared(&p, &m)
                            });
                        }
                        m
                    }
                };
                if m.is_empty() {
                    return Ok("(unsatisfiable: empty union)".to_owned());
                }
                let lines: Vec<String> = m
                    .queries()
                    .iter()
                    .map(|sub| sub.display(schema.schema()).to_string())
                    .collect();
                Ok(lines.join("\n"))
            }
            other => Err(format!("the replay does not model `{other:?}`")),
        }
    }

    /// `p1 ⊆ p2` as `Engine::contains` runs it for a terminal pair: cache
    /// lookup, then on a miss the memoized analysis and satisfiability,
    /// the branch engine, and the cache insert.
    fn contains(&mut self, p1: &PreparedQuery, p2: &PreparedQuery) -> Result<bool, String> {
        if let Some(cache) = &self.cache {
            if let Some(hit) = timed(&mut self.rec, Layer::CacheLookup, || {
                cache.get_contains_prepared(p1, p2)
            }) {
                return Ok(hit);
            }
        }
        let schema = p1.schema().schema();
        let constrained = schema.has_constraints();
        if !constrained {
            // The constraint theory decides from the queries themselves;
            // only the plain path consumes these memoized artifacts.
            timed(&mut self.rec, Layer::Analysis, || {
                p1.analysis();
                p2.analysis();
            });
            timed(&mut self.rec, Layer::Satisfiability, || {
                let _ = p1.satisfiability();
                let _ = p2.satisfiability();
            });
        }
        let on = self.rec.on;
        if on {
            self.probe(p1, p2, constrained);
        }
        // Branch counters accumulate on the left query (the target).
        let before = on.then(|| (p1.stats().branch_stats, theory_stats()));
        let engine = &self.engine;
        let holds = timed(&mut self.rec, Layer::BranchDecide, || {
            engine.dispatch(p1, p2)
        })
        .map_err(core)?;
        if let Some((b, t)) = before {
            add_branch(&mut self.counts.branch, p1.stats().branch_stats, b);
            self.counts.theory_rewrites += theory_stats().left_rewrites - t.left_rewrites;
        }
        if let Some(cache) = &self.cache {
            timed(&mut self.rec, Layer::CacheInsert, || {
                cache.put_contains_prepared(p1, p2, holds)
            });
        }
        Ok(holds)
    }

    /// Probe the layers the branch engine calls internally, on the same
    /// inputs: constraint compilation of both sides (constrained schemas
    /// only) and the satisfiable terminal expansion of both sides.
    fn probe(&mut self, p1: &PreparedQuery, p2: &PreparedQuery, constrained: bool) {
        let schema = p1.schema().schema();
        let budget = Budget::unlimited();
        if constrained {
            let theory = ConstraintTheory::for_schema(schema);
            timed(&mut self.rec, Layer::TheoryCompile, || {
                let _ = theory.compile(schema, Side::Left, p1.query(), &budget);
                let _ = theory.compile(schema, Side::Right, p2.query(), &budget);
            });
        }
        let branches = timed(&mut self.rec, Layer::Expand, || {
            [p1, p2]
                .iter()
                .filter_map(|p| {
                    let n = normalize(p.query(), schema).ok()?;
                    expand_satisfiable(schema, &n).ok().map(|u| u.len() as u64)
                })
                .sum::<u64>()
        });
        self.counts.expansion_branches += branches;
    }
}
