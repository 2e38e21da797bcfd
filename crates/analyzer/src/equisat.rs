//! Equisatisfiability comparison: the machinery behind the REP metric.
//!
//! Following the paper (§III-D): *"It is computed using the Alloy Analyzer
//! to run each command in both the proposed fix and its corresponding ground
//! truth. For each command in the ground truth specification, results are
//! compared with those from the proposed fix. If any results differ, a REP
//! of 0 is assigned […]; if all results match, a REP of 1 is assigned."*
//!
//! [`rep_for_source_with`] routes every solve through an [`Oracle`]. A
//! study cell scores REP against the per-problem oracle its technique has
//! just used: the ground truth's commands are solved once per problem, and
//! the candidate's answers come from the memo. When the candidate runs
//! exactly the truth's fully annotated commands, its own oracle verdict
//! decides REP. The oracle-less [`compare`] and [`rep_for_source`] are the
//! same code over a cold, memo-less oracle.

use mualloy_syntax::ast::Spec;
use specrepair_trace::Phase;

use crate::analyzer::CommandOutcome;
use crate::error::AnalyzerError;
use crate::oracle::Oracle;

/// Per-command comparison detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandComparison {
    /// Rendering of the command (`check Safe for 3`).
    pub command: String,
    /// Satisfiability under the ground truth.
    pub truth_sat: bool,
    /// Satisfiability under the candidate, or `None` if the candidate could
    /// not execute the command (missing target, translation failure).
    pub candidate_sat: Option<bool>,
}

impl CommandComparison {
    /// Whether the candidate matched the ground truth on this command.
    pub fn matches(&self) -> bool {
        self.candidate_sat == Some(self.truth_sat)
    }
}

/// Result of an equisatisfiability comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquisatReport {
    /// Per-command details, in ground-truth command order.
    pub comparisons: Vec<CommandComparison>,
}

impl EquisatReport {
    /// REP: 1 when every command matches, 0 otherwise.
    pub fn rep(&self) -> u8 {
        u8::from(self.equisatisfiable())
    }

    /// Whether every ground-truth command matched.
    pub fn equisatisfiable(&self) -> bool {
        !self.comparisons.is_empty() && self.comparisons.iter().all(CommandComparison::matches)
    }

    /// The commands that disagreed.
    pub fn mismatches(&self) -> impl Iterator<Item = &CommandComparison> {
        self.comparisons.iter().filter(|c| !c.matches())
    }
}

/// Runs every ground-truth command on both specifications and compares the
/// satisfiability results, solving each side cold.
///
/// Commands are matched by kind and target name; the ground truth's scope is
/// used on both sides so that a candidate cannot "win" by shrinking scopes.
///
/// # Errors
///
/// Fails only when the *ground truth* itself cannot execute a command —
/// candidate failures are recorded as mismatches, not errors.
pub fn compare(truth: &Spec, candidate: &Spec) -> Result<EquisatReport, AnalyzerError> {
    let oracle = Oracle::cold();
    Ok(compare_outcomes(
        &oracle,
        &oracle.execute_all(truth)?,
        candidate,
    ))
}

/// The command-by-command comparison against already-solved ground-truth
/// outcomes (in ground-truth command order).
fn compare_outcomes(oracle: &Oracle, truth: &[CommandOutcome], candidate: &Spec) -> EquisatReport {
    let comparisons = truth
        .iter()
        .map(|t| {
            let cmd = &t.command;
            let verb = if cmd.is_check() { "check" } else { "run" };
            CommandComparison {
                command: format!("{verb} {} for {}", cmd.target(), cmd.scope),
                truth_sat: t.sat,
                candidate_sat: oracle.run_command(candidate, cmd).ok().map(|o| o.sat),
            }
        })
        .collect();
    EquisatReport { comparisons }
}

/// Whether the candidate's own oracle verdict decides REP: the ground truth
/// has at least one command, every one of them carries an `expect` that
/// the truth meets, and the candidate's commands equal the truth's in
/// order, kind, target, scope and `expect`.
///
/// Then `expect_i = truth_sat_i` for every command `i`, and the candidate
/// runs exactly the truth's commands, so "every candidate command meets its
/// `expect`" ([`Oracle::satisfies_oracle`]) states "every command agrees
/// with the truth" — equisatisfiability. A command the candidate cannot
/// execute is an `Err` verdict on one side and a mismatch on the other:
/// REP 0 either way.
fn verdict_decides(truth: &[CommandOutcome], candidate: &Spec) -> bool {
    !truth.is_empty()
        && truth
            .iter()
            .all(|t| t.command.expect.is_some() && t.matches_expectation())
        && candidate.commands.len() == truth.len()
        && candidate.commands.iter().zip(truth).all(|(c, t)| {
            c.kind == t.command.kind && c.scope == t.command.scope && c.expect == t.command.expect
        })
}

/// REP of a parsed candidate through `oracle`: the candidate's own verdict
/// when [`verdict_decides`], else the per-command comparison. Fails only
/// when the ground truth cannot execute its own commands.
fn rep_with(oracle: &Oracle, truth: &Spec, candidate: &Spec) -> Result<u8, AnalyzerError> {
    let truth_outcomes = oracle.execute_all(truth)?;
    if verdict_decides(&truth_outcomes, candidate) {
        return Ok(u8::from(
            oracle.satisfies_oracle(candidate).unwrap_or(false),
        ));
    }
    Ok(compare_outcomes(oracle, &truth_outcomes, candidate).rep())
}

/// Convenience wrapper: parses the candidate source and scores it cold.
/// Returns REP 0 for unparsable candidates (as the paper's pipeline does).
///
/// # Errors
///
/// Fails only when the ground truth cannot execute its own commands.
pub fn rep_for_source(truth: &Spec, candidate_source: &str) -> Result<u8, AnalyzerError> {
    rep_for_source_with(&Oracle::cold(), truth, candidate_source)
}

/// [`rep_for_source`] through `oracle`, under one `metrics.rep` span.
///
/// When the truth has at least one command, every truth command carries an
/// `expect` the truth meets, and the candidate's commands equal the
/// truth's (order, kind, target, scope, `expect`), REP is the candidate's
/// memoized [`Oracle::satisfies_oracle`] verdict (an `Err` scores 0) —
/// within a study cell usually a memo hit, since the technique validated
/// that very candidate. Otherwise the truth's commands are run on the
/// candidate one by one through [`Oracle::run_command`]. Both ways give
/// `compare(truth, candidate).rep()`.
///
/// # Errors
///
/// Fails only when the ground truth cannot execute its own commands.
pub fn rep_for_source_with(
    oracle: &Oracle,
    truth: &Spec,
    candidate_source: &str,
) -> Result<u8, AnalyzerError> {
    let _span = specrepair_trace::span("metrics.rep", Phase::Orchestration);
    match mualloy_syntax::parse_spec(candidate_source) {
        Ok(candidate) => rep_with(oracle, truth, &candidate),
        Err(_) => Ok(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;

    const TRUTH: &str = "sig N { next: lone N } \
        fact { no n: N | n in n.^next } \
        pred hasEdge { some next } \
        assert NoSelf { all n: N | n not in n.next } \
        run hasEdge for 3 expect 1 \
        check NoSelf for 3 expect 0";

    #[test]
    fn identical_specs_are_equisatisfiable() {
        let t = parse_spec(TRUTH).unwrap();
        let report = compare(&t, &t).unwrap();
        assert_eq!(report.rep(), 1);
        assert!(report.mismatches().next().is_none());
    }

    #[test]
    fn semantically_equivalent_repair_scores_one() {
        let t = parse_spec(TRUTH).unwrap();
        // Different syntax, same meaning: all n | n !in n.^next.
        let c = parse_spec(&TRUTH.replace("no n: N | n in n.^next", "all n: N | n not in n.^next"))
            .unwrap();
        assert_eq!(compare(&t, &c).unwrap().rep(), 1);
    }

    #[test]
    fn broken_fact_scores_zero() {
        let t = parse_spec(TRUTH).unwrap();
        let c = parse_spec(&TRUTH.replace("no n: N | n in n.^next", "some N || no N")).unwrap();
        let report = compare(&t, &c).unwrap();
        assert_eq!(report.rep(), 0);
        // The check command disagrees: cycles allow self loops.
        assert!(report.mismatches().any(|m| m.command.contains("check")));
    }

    #[test]
    fn candidate_missing_target_scores_zero() {
        let t = parse_spec(TRUTH).unwrap();
        let c = parse_spec("sig N { next: lone N }").unwrap();
        let report = compare(&t, &c).unwrap();
        assert_eq!(report.rep(), 0);
        assert!(report.comparisons.iter().all(|c| c.candidate_sat.is_none()));
    }

    #[test]
    fn truth_without_commands_scores_zero() {
        let t = parse_spec("sig A {}").unwrap();
        let report = compare(&t, &t).unwrap();
        assert_eq!(report.rep(), 0, "no commands means nothing was verified");
    }

    #[test]
    fn unparsable_candidate_scores_zero() {
        let t = parse_spec(TRUTH).unwrap();
        assert_eq!(rep_for_source(&t, "sig {").unwrap(), 0);
        assert_eq!(rep_for_source(&t, TRUTH).unwrap(), 1);
    }

    /// An enabled oracle, a memo-less one, and one without incremental
    /// sessions: REP must not depend on which one scores it.
    fn oracles() -> [Oracle; 3] {
        let cold_verdicts = Oracle::new();
        cold_verdicts.disable_incremental();
        [Oracle::new(), Oracle::disabled(), cold_verdicts]
    }

    /// Asserts the cold comparison and every oracle-routed REP agree on
    /// `expected`, scoring twice per oracle (the second time from the memo).
    fn assert_rep(truth: &str, candidate: &str, expected: u8) {
        let t = parse_spec(truth).unwrap();
        let c = parse_spec(candidate).unwrap();
        assert_eq!(compare(&t, &c).unwrap().rep(), expected, "cold compare");
        for oracle in oracles() {
            for pass in 0..2 {
                assert_eq!(
                    rep_with(&oracle, &t, &c).unwrap(),
                    expected,
                    "{oracle:?}, pass {pass}"
                );
            }
        }
    }

    #[test]
    fn oracle_routed_rep_matches_cold_compare() {
        assert_rep(TRUTH, TRUTH, 1);
        let broken = TRUTH.replace("no n: N | n in n.^next", "some N || no N");
        assert_rep(TRUTH, &broken, 0);
    }

    #[test]
    fn verdict_rule_reuses_the_memoized_verdict() {
        let t = parse_spec(TRUTH).unwrap();
        let c = parse_spec(&TRUTH.replace("no n: N | n in n.^next", "all n: N | n not in n.^next"))
            .unwrap();
        let oracle = Oracle::new();
        oracle.execute_all(&t).unwrap();
        assert!(oracle.satisfies_oracle(&c).unwrap());
        let misses = oracle.stats().misses;
        assert_eq!(rep_with(&oracle, &t, &c).unwrap(), 1);
        assert_eq!(oracle.stats().misses, misses, "REP solved nothing new");
    }

    #[test]
    fn truth_without_commands_scores_zero_everywhere() {
        assert_rep("sig A {}", "sig A {}", 0);
    }

    #[test]
    fn reordered_command_falls_back_to_per_command_comparison() {
        let reordered = TRUTH.replace(
            "run hasEdge for 3 expect 1 check NoSelf for 3 expect 0",
            "check NoSelf for 3 expect 0 run hasEdge for 3 expect 1",
        );
        assert_ne!(reordered, TRUTH);
        assert_rep(TRUTH, &reordered, 1);
    }

    #[test]
    fn dropped_command_falls_back_to_per_command_comparison() {
        let dropped = TRUTH.replace("check NoSelf for 3 expect 0", "");
        assert_rep(TRUTH, &dropped, 1);
        // Its remaining command still meets its `expect`, but the dropped
        // check now finds a counterexample.
        let broken = dropped.replace("no n: N | n in n.^next", "some N || no N");
        assert_rep(TRUTH, &broken, 0);
    }

    #[test]
    fn rescoped_command_is_judged_at_the_truth_scope() {
        // A four-node chain needs scope 4: at the candidate's scope 3 its
        // own `expect 1` fails, yet at the truth's scope it agrees.
        let truth = "sig N { next: lone N } \
            fact { no n: N | n in n.^next } \
            pred chain { some n: N | some n.next.next.next } \
            run chain for 4 expect 1";
        let rescoped = truth.replace("for 4", "for 3");
        assert!(!crate::Analyzer::new(parse_spec(&rescoped).unwrap())
            .satisfies_oracle()
            .unwrap());
        assert_rep(truth, &rescoped, 1);
        let cyclic = rescoped.replace("fact { no n: N | n in n.^next }", "fact { some next }");
        assert_rep(truth, &cyclic.replace("some n.next.next.next", "no N"), 0);
    }

    #[test]
    fn changed_expect_falls_back_to_per_command_comparison() {
        // Same semantics, but the candidate claims the check finds a
        // counterexample: its own verdict is false, yet it is
        // equisatisfiable with the truth.
        let candidate = TRUTH.replace("check NoSelf for 3 expect 0", "check NoSelf for 3 expect 1");
        assert!(!crate::Analyzer::new(parse_spec(&candidate).unwrap())
            .satisfies_oracle()
            .unwrap());
        assert_rep(TRUTH, &candidate, 1);
    }

    #[test]
    fn truth_command_without_expect_falls_back() {
        let truth = TRUTH.replace("run hasEdge for 3 expect 1", "run hasEdge for 3");
        assert_rep(&truth, &truth, 1);
        // Every annotated command still passes; only the unannotated run
        // turns unsatisfiable.
        let broken = truth.replace(
            "pred hasEdge { some next }",
            "pred hasEdge { some next && no next }",
        );
        assert_rep(&truth, &broken, 0);
    }

    #[test]
    fn truth_missing_its_own_expect_falls_back() {
        // The truth's check finds no counterexample, against its `expect 1`:
        // an identical candidate fails its own oracle but is equisatisfiable.
        let truth = TRUTH.replace("check NoSelf for 3 expect 0", "check NoSelf for 3 expect 1");
        assert_rep(&truth, &truth, 1);
    }

    #[test]
    fn candidate_unable_to_execute_a_command_scores_zero() {
        // Same commands, but the predicate the `run` targets is gone.
        let candidate = TRUTH.replace("pred hasEdge { some next }", "");
        assert_rep(TRUTH, &candidate, 0);
    }
}
