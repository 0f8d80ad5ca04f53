//! The decision verbs' bodies, written once. Session requests
//! ([`ServiceEngine::execute`](crate::ServiceEngine::execute)) render the
//! returned lines bare; workbench programs
//! ([`run_program_with`](crate::run_program_with)) add a header line and
//! indentation. Every decision goes through the request's [`Engine`].

use oocq_core::{
    compiled_left, expand, satisfiability, Compiled, ConstraintTheory, CoreError, Engine,
    PreparedQuery, Satisfiability, Side, Theory as _,
};
use oocq_query::{normalize, Query};

/// The rendered verdict of a boolean decision.
pub(crate) fn verdict(holds: bool) -> &'static str {
    if holds {
        "holds"
    } else {
        "FAILS"
    }
}

/// `equiv a b`: containment dispatched both ways.
pub(crate) fn equivalent(
    eng: &Engine,
    pa: &PreparedQuery,
    pb: &PreparedQuery,
) -> Result<bool, CoreError> {
    Ok(eng.dispatch(pa, pb)? && eng.dispatch(pb, pa)?)
}

/// `satisfiable q`: every terminal branch of the normalized query, marked
/// `SAT` or `UNSAT` with the reason (Theorem 2.2). On a constrained schema a
/// branch can be plain-satisfiable yet dead under the declared constraints
/// (every terminal class one of its variables could take is
/// disjointness-eliminated); those are `UNSAT` with the theory's reason.
pub(crate) fn satisfiable(eng: &Engine, p: &PreparedQuery) -> Result<Vec<String>, CoreError> {
    let s = p.schema().schema();
    let theory = s.has_constraints().then(|| ConstraintTheory::for_schema(s));
    let mut out = Vec::new();
    for sub in &expand(s, &normalize(p.query(), s)?)? {
        let mut verdict = satisfiability(s, sub)?;
        if let (Satisfiability::Satisfiable, Some(t)) = (&verdict, &theory) {
            if let Compiled::Unsatisfiable(reason) =
                t.compile(s, Side::Right, sub, &eng.config().budget)?
            {
                verdict = Satisfiability::Unsatisfiable(reason);
            }
        }
        out.push(match verdict {
            Satisfiability::Satisfiable => format!("SAT   {}", sub.display(s)),
            Satisfiability::Unsatisfiable(reason) => format!("UNSAT {} ({reason})", sub.display(s)),
        });
    }
    Ok(out)
}

/// `explain a b`: for a terminal pair, the Theorem 3.1 certificate rendered
/// against the theory-compiled left query its witnesses refer to; otherwise
/// the Theorem 4.1 cover of each satisfiable terminal branch of `a` by the
/// branches of `b`. `a_name` names `a` in the vacuous-holds line.
pub(crate) fn explain(
    eng: &Engine,
    a_name: &str,
    pa: &PreparedQuery,
    pb: &PreparedQuery,
) -> Result<Vec<String>, CoreError> {
    let ps = pa.schema();
    let s = ps.schema();
    let (qa, qb) = (pa.query(), pb.query());
    if qa.is_terminal(s) && qb.is_terminal(s) {
        let proof = eng.decide(pa, pb)?;
        let qa_c = compiled_left(s, qa, eng.config())?;
        return Ok(proof
            .render(s, &qa_c, qb)
            .lines()
            .map(str::to_owned)
            .collect());
    }
    let branches = |q: &Query| -> Result<Vec<PreparedQuery>, CoreError> {
        let u = eng.expand_satisfiable(&eng.prepare(ps, &normalize(q, s)?))?;
        Ok(u.iter().map(|sub| eng.prepare(ps, sub)).collect())
    };
    let (ua, ub) = (branches(qa)?, branches(qb)?);
    let mut out = Vec::new();
    if ua.is_empty() {
        out.push(format!(
            "holds vacuously: every branch of {a_name} is unsatisfiable"
        ));
    }
    for sub in &ua {
        let mut covered = false;
        for p in &ub {
            if eng.contains(sub, p)? {
                covered = true;
                break;
            }
        }
        let mark = if covered { "covered " } else { "UNCOVERED" };
        out.push(format!("{mark} {}", sub.query().display(s)));
    }
    Ok(out)
}

/// `expand q`: every terminal branch of the normalized query
/// (Proposition 2.1), unfiltered.
pub(crate) fn expand_branches(p: &PreparedQuery) -> Result<Vec<String>, CoreError> {
    let s = p.schema().schema();
    let u = expand(s, &normalize(p.query(), s)?)?;
    Ok(u.iter().map(|sub| sub.display(s).to_string()).collect())
}

/// `minimize q`: the search-space-optimal union (§4), one subquery per
/// line.
pub(crate) fn minimize(eng: &Engine, p: &PreparedQuery) -> Result<Vec<String>, CoreError> {
    let m = eng.minimize(p)?;
    if m.is_empty() {
        return Ok(vec!["(unsatisfiable: empty union)".to_owned()]);
    }
    let s = p.schema().schema();
    Ok(m.iter().map(|sub| sub.display(s).to_string()).collect())
}
