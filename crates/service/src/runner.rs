//! Execution of workbench programs under an explicit [`EngineConfig`].
//!
//! [`run_program_with`] renders byte-identical transcripts to the original
//! serial workbench runner (the `tests/corpus` golden files are the
//! contract), while routing every engine decision through the configured
//! thread pool and decision cache. The root crate's
//! `oocq::run_program` delegates here with
//! [`EngineConfig::from_env`].

use crate::verbs;
use oocq_core::{CoreError, Engine, EngineConfig, PreparedQuery, PreparedSchema};
use oocq_parser::{parse_program, Command, ParseError, Program};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Errors from running a workbench program.
#[derive(Debug)]
pub enum RunError {
    /// The program text failed to parse.
    Parse(ParseError),
    /// A command failed (e.g. minimizing a non-positive query).
    Core(CoreError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(e) => write!(f, "parse error at {e}"),
            RunError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ParseError> for RunError {
    fn from(e: ParseError) -> Self {
        RunError::Parse(e)
    }
}

impl From<CoreError> for RunError {
    fn from(e: CoreError) -> Self {
        RunError::Core(e)
    }
}

/// Parse and run a program under a configuration, returning the rendered
/// transcript.
pub fn run_workbench_with(source: &str, cfg: &EngineConfig) -> Result<String, RunError> {
    let program = parse_program(source)?;
    run_program_with(&program, cfg).map_err(Into::into)
}

/// Run an already-parsed program under a configuration. Each command runs
/// its verb's shared body and renders it under a header line, indented.
///
/// Output is independent of `cfg.threads` and of the cache state (the
/// corpus replay tests in this crate assert both).
pub fn run_program_with(program: &Program, cfg: &EngineConfig) -> Result<String, CoreError> {
    let eng = Engine::new(cfg.clone());
    // Prepare the schema and every named query once; all commands over a
    // name then share its memoized analysis, classes, canonical form, and
    // branch indexes.
    let ps = PreparedSchema::new(&program.schema);
    let prepared: HashMap<&str, PreparedQuery> = program
        .queries
        .iter()
        .map(|(n, q)| (n.as_str(), PreparedQuery::new(&ps, q.clone())))
        .collect();
    let prep = |name: &str| prepared.get(name).expect("validated by the parser");
    let mut out = String::new();
    let block = |out: &mut String, header: String, lines: Vec<String>| {
        let _ = writeln!(out, "{header}");
        for line in lines {
            let _ = writeln!(out, "  {line}");
        }
    };
    for cmd in &program.commands {
        match cmd {
            Command::Satisfiable(name) => block(
                &mut out,
                format!("satisfiable {name}?"),
                verbs::satisfiable(&eng, prep(name))?,
            ),
            Command::CheckContains(a, b) => {
                let holds = eng.dispatch(prep(a), prep(b))?;
                let _ = writeln!(out, "check {a} <= {b}: {}", verbs::verdict(holds));
            }
            Command::CheckEquivalent(a, b) => {
                let holds = verbs::equivalent(&eng, prep(a), prep(b))?;
                let _ = writeln!(out, "check {a} == {b}: {}", verbs::verdict(holds));
            }
            Command::Explain(a, b) => block(
                &mut out,
                format!("explain {a} <= {b}:"),
                verbs::explain(&eng, a, prep(a), prep(b))?,
            ),
            Command::Expand(name) => {
                let subs = verbs::expand_branches(prep(name))?;
                block(
                    &mut out,
                    format!("expand {name} ({} branches):", subs.len()),
                    subs,
                );
            }
            Command::Minimize(name) => match verbs::minimize(&eng, prep(name)) {
                Ok(lines) => block(&mut out, format!("minimize {name}:"), lines),
                Err(e) => {
                    let _ = writeln!(out, "minimize {name}: cannot minimize ({e})");
                }
            },
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_for_a_tiny_program() {
        let text = "schema { class C {} } query Q = { x | x in C } \
                    satisfiable Q check Q <= Q minimize Q";
        let out = run_workbench_with(text, &EngineConfig::serial()).unwrap();
        assert!(out.contains("SAT   { x | x in C }"));
        assert!(out.contains("check Q <= Q: holds"));
        assert!(out.contains("minimize Q:\n  { x | x in C }"));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            run_workbench_with("query Q = { x | x in C }", &EngineConfig::serial()),
            Err(RunError::Parse(_))
        ));
    }
}
