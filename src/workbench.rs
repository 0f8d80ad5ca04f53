//! Execution of workbench programs (see [`parse_program`]): runs each
//! command against the program's schema and renders the results as text.
//! Shared by the `oocq_cli` example and the golden-file corpus tests.
//!
//! The actual runner lives in `oocq-service` ([`oocq_service::run_program_with`])
//! so the `oocq-serve` daemon can execute `run` requests with an explicit
//! [`EngineConfig`]; these wrappers preserve the original environment-driven
//! API and its exact output bytes.

use crate::{parse_program, CoreError, EngineConfig, Program};

/// Errors from running a workbench program: a parse failure or a failed
/// command (e.g. minimizing a non-positive query).
pub use oocq_service::RunError as WorkbenchError;

/// Containment dispatch across query shapes: §3 for terminal pairs, §4 for
/// positive pairs, left-expansion against a terminal right side.
pub use oocq_core::dispatch_containment;

/// Parse and run a program, returning the rendered transcript.
pub fn run_workbench(source: &str) -> Result<String, WorkbenchError> {
    let program = parse_program(source)?;
    run_program(&program).map_err(Into::into)
}

/// Run an already-parsed program under the environment configuration
/// (`OOCQ_THREADS`).
pub fn run_program(program: &Program) -> Result<String, CoreError> {
    oocq_service::run_program_with(program, &EngineConfig::from_env())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transcript_for_a_tiny_program() {
        let text = "schema { class C {} } query Q = { x | x in C } \
                    satisfiable Q check Q <= Q minimize Q";
        let out = run_workbench(text).unwrap();
        assert!(out.contains("SAT   { x | x in C }"));
        assert!(out.contains("check Q <= Q: holds"));
        assert!(out.contains("minimize Q:\n  { x | x in C }"));
    }

    #[test]
    fn parse_errors_surface() {
        assert!(matches!(
            run_workbench("query Q = { x | x in C }"),
            Err(WorkbenchError::Parse(_))
        ));
    }

    #[test]
    fn dispatch_rejects_undecidable_shapes() {
        // Non-positive AND non-terminal on the right: outside the fragment.
        let s = crate::parse_schema("class C {} class D : C {}").unwrap();
        let qa = crate::parse_query(&s, "{ x | x in C }").unwrap();
        let qb = crate::parse_query(&s, "{ x | exists y: x in C & y in C & x != y }").unwrap();
        assert!(dispatch_containment(&s, &qa, &qb).is_err());
    }
}
