//! # specrepair-metrics
//!
//! The study's three evaluation metrics (§III-D) plus the correlation and
//! overlap statistics behind Figures 3–4:
//!
//! - **REP** — [`rep`]: command-by-command equisatisfiability of a repair
//!   candidate against the ground truth (via [`mualloy_analyzer::equisat`]);
//! - **TM** — [`bleu::sentence_bleu`]: whitespace-token sentence BLEU;
//! - **SM** — [`kernel::syntax_match`]: normalized subtree-kernel
//!   similarity of parse trees;
//! - [`stats::pearson`] and [`stats::correlation_matrix`] for Figure 3;
//! - [`treediff::tree_diff`]: the persistent-id tree diff — a minimal
//!   edit script (subtree inserts/deletes, local updates) quantifying how
//!   far a repair strayed from the faulty specification.
//!
//! # Example
//!
//! ```
//! use specrepair_metrics::{candidate_metrics, CandidateMetrics};
//! use mualloy_syntax::parse_spec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let truth = "sig A {} pred p { some A } run p for 3 expect 1";
//! let candidate = "sig A {} pred p { some A } run p for 3 expect 1";
//! let m = candidate_metrics(&parse_spec(truth)?, truth, Some(candidate));
//! assert_eq!(m.rep, 1);
//! assert_eq!(m.tm, Some(1.0));
//! assert_eq!(m.sm, Some(1.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bleu;
pub mod kernel;
pub mod stats;
pub mod treediff;

use mualloy_analyzer::Oracle;
use mualloy_syntax::Spec;
use serde::{Deserialize, Serialize};

pub use bleu::sentence_bleu;
pub use kernel::{subtree_kernel, syntax_match, LabeledTree};
pub use stats::{correlation_matrix, mean, pearson, pearson_t_statistic};
pub use treediff::{tree_diff, tree_similarity, EditKind, TreeDiff, TreeDiffSummary, TreeEdit};

/// REP for a candidate source against the parsed ground truth: 1 when every
/// ground-truth command is equisatisfiable under the candidate, else 0.
/// Unparsable candidates (and absent ones) score 0. Every solve is cold;
/// see [`rep_with`] to score against a shared oracle.
pub fn rep(truth: &Spec, candidate_source: Option<&str>) -> u8 {
    rep_with(&Oracle::cold(), truth, candidate_source)
}

/// [`rep`] with every solve routed through `oracle` — the per-problem
/// oracle a technique has just used, so the ground truth is solved once
/// per problem and the candidate's verdict usually comes from the memo
/// (see [`mualloy_analyzer::rep_for_source_with`]).
pub fn rep_with(oracle: &Oracle, truth: &Spec, candidate_source: Option<&str>) -> u8 {
    match candidate_source {
        None => 0,
        Some(src) => mualloy_analyzer::rep_for_source_with(oracle, truth, src).unwrap_or(0),
    }
}

/// The three per-candidate metrics of the study.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CandidateMetrics {
    /// REP: 1 = equisatisfiable with the ground truth on all its commands.
    pub rep: u8,
    /// Token Match (BLEU), `None` when no candidate text exists.
    pub tm: Option<f64>,
    /// Syntax Match (subtree kernel), `None` when no candidate text exists.
    pub sm: Option<f64>,
}

/// Computes REP/TM/SM for one candidate against the ground truth, solving
/// cold.
///
/// `truth_source` must be the text TM is measured against (the study uses
/// the benchmark's ground-truth file).
pub fn candidate_metrics(
    truth: &Spec,
    truth_source: &str,
    candidate_source: Option<&str>,
) -> CandidateMetrics {
    candidate_metrics_with(&Oracle::cold(), truth, truth_source, candidate_source)
}

/// [`candidate_metrics`] with REP scored through `oracle` ([`rep_with`]).
pub fn candidate_metrics_with(
    oracle: &Oracle,
    truth: &Spec,
    truth_source: &str,
    candidate_source: Option<&str>,
) -> CandidateMetrics {
    CandidateMetrics {
        rep: rep_with(oracle, truth, candidate_source),
        tm: candidate_source.map(|c| sentence_bleu(truth_source, c)),
        sm: candidate_source.map(|c| syntax_match(truth_source, c)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;
    use proptest::prelude::*;

    const TRUTH: &str = "sig N { next: lone N } \
        fact { no n: N | n in n.^next } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    #[test]
    fn perfect_candidate_scores_perfectly() {
        let truth = parse_spec(TRUTH).unwrap();
        let m = candidate_metrics(&truth, TRUTH, Some(TRUTH));
        assert_eq!(m.rep, 1);
        assert_eq!(m.tm, Some(1.0));
        assert_eq!(m.sm, Some(1.0));
    }

    #[test]
    fn missing_candidate_scores_zero_rep_and_no_similarity() {
        let truth = parse_spec(TRUTH).unwrap();
        let m = candidate_metrics(&truth, TRUTH, None);
        assert_eq!(m.rep, 0);
        assert_eq!(m.tm, None);
        assert_eq!(m.sm, None);
    }

    #[test]
    fn semantically_equivalent_but_textually_different() {
        let truth = parse_spec(TRUTH).unwrap();
        let candidate = TRUTH.replace("no n: N | n in n.^next", "all n: N | n not in n.^next");
        let m = candidate_metrics(&truth, TRUTH, Some(&candidate));
        assert_eq!(m.rep, 1, "equivalent rewriting is still a repair");
        assert!(m.tm.unwrap() < 1.0);
        assert!(m.sm.unwrap() < 1.0);
    }

    #[test]
    fn broken_candidate_scores_rep_zero_but_high_similarity() {
        let truth = parse_spec(TRUTH).unwrap();
        let candidate = TRUTH.replace("n in n.^next", "n not in n.^next");
        let m = candidate_metrics(&truth, TRUTH, Some(&candidate));
        assert_eq!(m.rep, 0);
        assert!(m.tm.unwrap() > 0.7);
        assert!(m.sm.unwrap() > 0.7);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// TM and SM are always within [0, 1] for arbitrary candidate text.
        #[test]
        fn similarity_bounds(noise in "[a-z{}() ]{0,60}") {
            let tm = sentence_bleu(TRUTH, &noise);
            prop_assert!((0.0..=1.0).contains(&tm));
            let sm = syntax_match(TRUTH, &noise);
            prop_assert!((0.0..=1.0).contains(&sm));
        }
    }
}
