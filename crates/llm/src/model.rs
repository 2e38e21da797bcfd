//! The synthetic language model.
//!
//! This is the reproduction's substitute for GPT-4 (see DESIGN.md §1): a
//! deterministic, seeded stochastic repair-proposal model that reproduces
//! the *mechanisms* the study attributes to LLM-based repair:
//!
//! - proposal quality depends on the information in the prompt — a bug
//!   location hint concentrates edits on the right constraint, a fix
//!   description makes the model likely to apply the exact inverse edit;
//! - feedback-guided rounds re-rank candidate locations (the dual-agent
//!   Multi-Round loop);
//! - the model *re-renders the whole specification* and occasionally
//!   restyles logically-equivalent formulas, which is why LLM repairs
//!   measure lower token/syntax similarity to the ground truth than the
//!   span-splicing traditional tools (Figure 2);
//! - rarely, the output is malformed (the paper needed a "specialized
//!   parser" for exactly this), exercising the pipeline's robustness path.
//!
//! All stochastic choices flow from a caller-provided [`ChaCha8Rng`], so
//! every experiment is reproducible from its seed.
//!
//! # Prompt preparation
//!
//! Every proposal draws from the same menu: the prompt's specification,
//! parsed, and every mutation of it — the operator mutations of a
//! [`MutationEngine`] plus up to 24 synthesized constraints per top-level
//! formula. That menu depends on the prompt's source text alone, which
//! stays fixed across the drafts and rounds of one repair attempt, so a
//! `PreparedSource` builds it once (under an `lm.prepare` span) and
//! [`Prompt::new`] attaches it to the prompt. [`SyntheticLm::propose`]
//! uses the attached preparation when it was built from the prompt's
//! current source and prepares afresh otherwise; preparation draws
//! nothing from the rng, so both ways return the same text.

use mualloy_syntax::ast::*;
use mualloy_syntax::walk::{replace_node, NodeId, NodeRepl};
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use specrepair_mutation::{synthesis_mutations, Mutation, MutationEngine, Vocabulary};

use crate::prompt::{invert_fix_description, Prompt};

/// Capability parameters of the synthetic model. The defaults are the
/// calibration used for the study runs (documented in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmConfig {
    /// Probability that a location hint is actually honored.
    pub hint_fidelity: f64,
    /// Probability that a matching fix description is applied verbatim.
    pub fix_adoption: f64,
    /// Probability of stacking a second edit into one proposal.
    pub multi_edit_prob: f64,
    /// Probability of restyling an unrelated formula (semantically
    /// equivalent rewrite) in the emitted text.
    pub style_noise_prob: f64,
    /// Probability of emitting a malformed completion.
    pub glitch_prob: f64,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            hint_fidelity: 0.8,
            fix_adoption: 0.7,
            multi_edit_prob: 0.25,
            style_noise_prob: 0.5,
            glitch_prob: 0.02,
        }
    }
}

/// External guidance distilled from analyzer feedback (the Multi-Round
/// prompt agent's output).
#[derive(Debug, Clone, Default)]
pub struct Guidance {
    /// Per-site weights (site node id, weight); unlisted sites get a small
    /// base weight so exploration never collapses entirely.
    pub site_weights: Vec<(NodeId, f64)>,
    /// When set, restrict sampling to the `k` highest-weighted sites.
    pub restrict_top: Option<usize>,
}

/// A prompt's source text, prepared once for proposing: the parsed
/// specification's mutation engine and its full mutation list (operator
/// mutations, then synthesis mutations), shared across prompt clones
/// behind an [`std::sync::Arc`].
pub(crate) struct PreparedSource {
    source: String,
    /// `None` when the source does not parse.
    menu: Option<Menu>,
}

/// The edits a proposal chooses from.
struct Menu {
    engine: MutationEngine,
    mutations: Vec<Mutation>,
}

impl PreparedSource {
    /// Parses `source` and enumerates every mutation the model may propose.
    pub(crate) fn new(source: &str) -> PreparedSource {
        let _span = specrepair_trace::span("lm.prepare", specrepair_trace::Phase::Lm);
        let menu = mualloy_syntax::parse_spec(source).ok().map(|spec| {
            let engine = MutationEngine::new(&spec);
            let mut mutations = engine.all_mutations();
            // The model can also synthesize fresh constraints (replace or
            // strengthen whole formulas) — the capability the paper credits
            // for LLM success on faults that defeat operator-level search.
            let vocab = Vocabulary::of(&spec);
            let synth_sites: Vec<_> = engine
                .sites()
                .filter(|s| s.is_formula && s.depth <= 1)
                .cloned()
                .collect();
            mutations.extend(synthesis_mutations(&spec, &vocab, &synth_sites, 24));
            Menu { engine, mutations }
        });
        PreparedSource {
            source: source.to_string(),
            menu,
        }
    }
}

impl std::fmt::Debug for PreparedSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedSource")
            .field("source_bytes", &self.source.len())
            .field("mutations", &self.menu.as_ref().map(|m| m.mutations.len()))
            .finish()
    }
}

/// The synthetic language model.
#[derive(Debug, Clone, Default)]
pub struct SyntheticLm {
    /// Capability parameters.
    pub config: LmConfig,
}

impl SyntheticLm {
    /// Creates a model with the given configuration.
    pub fn new(config: LmConfig) -> SyntheticLm {
        SyntheticLm { config }
    }

    /// Produces one completion for the prompt: the full text of a candidate
    /// specification. Returns `None` when the prompt's specification does
    /// not parse (a real model would hallucinate; the pipelines treat both
    /// identically).
    ///
    /// Uses the prompt's attached preparation when it was built from
    /// `prompt.source`; prepares afresh otherwise.
    pub fn propose(
        &self,
        prompt: &Prompt,
        guidance: Option<&Guidance>,
        rng: &mut ChaCha8Rng,
    ) -> Option<String> {
        let fresh;
        let prepared = match &prompt.prepared {
            Some(p) if p.source == prompt.source => p.as_ref(),
            _ => {
                fresh = PreparedSource::new(&prompt.source);
                &fresh
            }
        };
        let Menu { engine, mutations } = prepared.menu.as_ref()?;
        if mutations.is_empty() {
            return Some(prompt.source.clone());
        }

        // 1. Choose the edit. A fix description adopted verbatim is applied
        // alone — the model "knows" the answer and does not improvise.
        let from_fix_hint = self.fix_hint_edit(prompt, mutations, rng);
        let adopted_fix = from_fix_hint.is_some();
        let chosen = from_fix_hint
            .or_else(|| self.location_guided_edit(prompt, mutations, rng))
            .or_else(|| self.guidance_weighted_edit(guidance, mutations, rng))
            .or_else(|| mutations.choose(rng).cloned())?;
        let mut candidate = engine.apply(&chosen)?;

        // 2. Possibly stack a second edit.
        if !adopted_fix && rng.gen_bool(self.config.multi_edit_prob) {
            let engine2 = MutationEngine::new(&candidate);
            let more = engine2.all_mutations();
            if let Some(m2) = more.choose(rng) {
                if let Some(c2) = engine2.apply(m2) {
                    candidate = c2;
                }
            }
        }

        // 3. Stylistic noise: the model re-renders everything and sometimes
        // rewrites an equivalent form.
        if rng.gen_bool(self.config.style_noise_prob) {
            candidate = style_noise(&candidate, rng);
        }
        let mut text = mualloy_syntax::print_spec(&candidate);

        // 4. Rare malformed completion (an unterminated trailing paragraph,
        // the way a cut-off chat response looks).
        if rng.gen_bool(self.config.glitch_prob) {
            text.push_str("\nsig {");
        }
        Some(text)
    }

    /// Applies a fix description verbatim when one matches an enumerable
    /// mutation.
    fn fix_hint_edit(
        &self,
        prompt: &Prompt,
        mutations: &[Mutation],
        rng: &mut ChaCha8Rng,
    ) -> Option<Mutation> {
        if prompt.hints.fix.is_empty() || !rng.gen_bool(self.config.fix_adoption) {
            return None;
        }
        for hint in &prompt.hints.fix {
            // Hints arrive already inverted by the prompt builder; accept
            // either orientation to be safe.
            let wanted_a = hint.clone();
            let wanted_b = invert_fix_description(hint);
            let matching: Vec<&Mutation> = mutations
                .iter()
                .filter(|m| m.description == wanted_a || m.description == wanted_b)
                .collect();
            // Prefer matches inside hinted locations.
            let located: Vec<&&Mutation> = matching
                .iter()
                .filter(|m| {
                    prompt
                        .hints
                        .loc
                        .iter()
                        .any(|s| m.span.start < s.end && s.start < m.span.end)
                })
                .collect();
            if let Some(m) = located.choose(rng) {
                return Some((***m).clone());
            }
            if let Some(m) = matching.choose(rng) {
                return Some((**m).clone());
            }
        }
        None
    }

    /// Samples an edit at the hinted sites (persistent node ids first,
    /// byte-span overlap as the fallback anchor).
    fn location_guided_edit(
        &self,
        prompt: &Prompt,
        mutations: &[Mutation],
        rng: &mut ChaCha8Rng,
    ) -> Option<Mutation> {
        if (prompt.hints.loc.is_empty() && prompt.hints.sites.is_empty())
            || !rng.gen_bool(self.config.hint_fidelity)
        {
            return None;
        }
        // A location hint says "the bug is *here*": the model tries local
        // operator-level edits, not wholesale resynthesis. A persistent-id
        // hint addresses the exact node (or one of its descendants) the
        // localizer ranked; span overlap is the legacy anchor for hints
        // that arrived as raw byte ranges.
        let at_site: Vec<&Mutation> = mutations
            .iter()
            .filter(|m| !m.kind.is_synthesis() && prompt.hints.sites.contains(&m.site))
            .collect();
        if let Some(m) = at_site.choose(rng) {
            return Some((*m).clone());
        }
        let inside: Vec<&Mutation> = mutations
            .iter()
            .filter(|m| {
                !m.kind.is_synthesis()
                    && prompt
                        .hints
                        .loc
                        .iter()
                        .any(|s| m.span.start < s.end && s.start < m.span.end)
            })
            .collect();
        inside.choose(rng).map(|m| (*m).clone())
    }

    /// Samples an edit according to feedback-derived site weights.
    fn guidance_weighted_edit(
        &self,
        guidance: Option<&Guidance>,
        mutations: &[Mutation],
        rng: &mut ChaCha8Rng,
    ) -> Option<Mutation> {
        let g = guidance?;
        if g.site_weights.is_empty() {
            return None;
        }
        let mut ranked = g.site_weights.clone();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(k) = g.restrict_top {
            ranked.truncate(k);
        }
        // Weighted pick over sites, then a uniform mutation at that site.
        let total: f64 = ranked.iter().map(|(_, w)| w.max(0.01)).sum();
        let mut roll = rng.gen_range(0.0..total.max(0.01));
        for (site, w) in &ranked {
            roll -= w.max(0.01);
            if roll <= 0.0 {
                let at_site: Vec<&Mutation> =
                    mutations.iter().filter(|m| m.site == *site).collect();
                if let Some(m) = at_site.choose(rng) {
                    return Some((*m).clone());
                }
                // The weighted site has no enumerable edits; widen to any
                // mutation *inside* its span.
                return None;
            }
        }
        None
    }
}

/// Applies one random semantics-preserving rewrite somewhere in the spec.
pub(crate) fn style_noise(spec: &Spec, rng: &mut ChaCha8Rng) -> Spec {
    let sites = mualloy_syntax::walk::collect_sites(spec);
    let formula_sites: Vec<_> = sites.iter().filter(|s| s.is_formula).collect();
    let Some(site) = formula_sites.choose(rng) else {
        return spec.clone();
    };
    let Some(NodeRepl::Formula(f)) = mualloy_syntax::walk::node_at(spec, site.id) else {
        return spec.clone();
    };
    let span = f.meta();
    let rewritten = match &f {
        // Commute a conjunction/disjunction.
        Formula::Binary(op @ (BinFormOp::And | BinFormOp::Or), l, r, _) => {
            Formula::Binary(*op, r.clone(), l.clone(), span)
        }
        // `no e` <-> `!(some e)`.
        Formula::Mult(MultOp::No, e, _) => {
            Formula::Not(Box::new(Formula::Mult(MultOp::Some, e.clone(), span)), span)
        }
        Formula::Not(inner, _) => match inner.as_ref() {
            Formula::Mult(MultOp::Some, e, _) => Formula::Mult(MultOp::No, e.clone(), span),
            _ => return spec.clone(),
        },
        // `a != b` <-> `!(a = b)`.
        Formula::Compare(CmpOp::Neq, l, r, _) => Formula::Not(
            Box::new(Formula::Compare(CmpOp::Eq, l.clone(), r.clone(), span)),
            span,
        ),
        _ => return spec.clone(),
    };
    replace_node(spec, site.id, NodeRepl::Formula(rewritten)).unwrap_or_else(|| spec.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::ProblemHints;
    use mualloy_analyzer::Analyzer;
    use rand::SeedableRng;

    const FAULTY: &str = "sig N { next: lone N }\n\
        fact Acyclic { some n: N | n in n.^next }\n\
        pred hasNode { some N }\n\
        assert NoSelf { all n: N | n not in n.next }\n\
        run hasNode for 3 expect 1\n\
        check NoSelf for 3 expect 0\n";

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn proposals_are_usually_parseable_and_differ() {
        let lm = SyntheticLm::default();
        let prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let mut parses = 0;
        let mut differs = 0;
        for seed in 0..40u64 {
            let Some(text) = lm.propose(&prompt, None, &mut rng(seed)) else {
                continue;
            };
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                parses += 1;
                if mualloy_syntax::print_spec(&spec)
                    != mualloy_syntax::print_spec(&mualloy_syntax::parse_spec(FAULTY).unwrap())
                {
                    differs += 1;
                }
            }
        }
        assert!(parses >= 35, "only {parses}/40 parse");
        assert!(differs >= 30, "only {differs}/40 differ");
    }

    #[test]
    fn deterministic_per_seed() {
        let lm = SyntheticLm::default();
        let prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let a = lm.propose(&prompt, None, &mut rng(7));
        let b = lm.propose(&prompt, None, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn fix_hint_is_adopted() {
        // The fault is `some` where `no` belongs: the (already inverted)
        // fix hint names the exact repair mutation.
        let lm = SyntheticLm::new(LmConfig {
            fix_adoption: 1.0,
            multi_edit_prob: 0.0,
            style_noise_prob: 0.0,
            glitch_prob: 0.0,
            ..LmConfig::default()
        });
        let fact_start = FAULTY.find("some n: N").unwrap();
        let prompt = Prompt {
            source: FAULTY.to_string(),
            hints: ProblemHints {
                sites: Vec::new(),
                loc: vec![mualloy_syntax::Span::new(fact_start, fact_start + 30)],
                fix: vec!["replace `some` with `no`".to_string()],
                pass: None,
            },
            feedback: None,
            prepared: None,
        };
        let mut fixed = 0;
        for seed in 0..10u64 {
            let text = lm.propose(&prompt, None, &mut rng(seed)).unwrap();
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                if Analyzer::new(spec).satisfies_oracle().unwrap_or(false) {
                    fixed += 1;
                }
            }
        }
        assert!(fixed >= 8, "fix hint adopted only {fixed}/10 times");
    }

    #[test]
    fn location_hint_concentrates_edits() {
        let lm = SyntheticLm::new(LmConfig {
            hint_fidelity: 1.0,
            multi_edit_prob: 0.0,
            style_noise_prob: 0.0,
            glitch_prob: 0.0,
            ..LmConfig::default()
        });
        let fact_start = FAULTY.find("some n: N").unwrap();
        let hint = mualloy_syntax::Span::new(fact_start, fact_start + 20);
        let prompt = Prompt {
            source: FAULTY.to_string(),
            hints: ProblemHints {
                loc: vec![hint],
                ..ProblemHints::default()
            },
            feedback: None,
            prepared: None,
        };
        // With edits forced inside the faulty quantifier, proposals repair
        // the spec at least as often as unhinted ones, and not never.
        let blind_prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let mut fixed = 0;
        let mut blind_fixed = 0;
        for seed in 0..40u64 {
            let text = lm.propose(&prompt, None, &mut rng(seed)).unwrap();
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                if Analyzer::new(spec).satisfies_oracle().unwrap_or(false) {
                    fixed += 1;
                }
            }
            let text = lm.propose(&blind_prompt, None, &mut rng(seed)).unwrap();
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                if Analyzer::new(spec).satisfies_oracle().unwrap_or(false) {
                    blind_fixed += 1;
                }
            }
        }
        assert!(fixed >= 2, "located proposals fixed only {fixed}/40");
        assert!(
            fixed >= blind_fixed,
            "hints should help: hinted {fixed} vs blind {blind_fixed}"
        );
    }

    #[test]
    fn style_noise_preserves_oracle() {
        let spec = mualloy_syntax::parse_spec(
            "sig N { next: lone N } \
             fact { no n: N | n in n.^next } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 3 expect 0",
        )
        .unwrap();
        for seed in 0..10u64 {
            let restyled = style_noise(&spec, &mut rng(seed));
            assert!(
                Analyzer::new(restyled).satisfies_oracle().unwrap(),
                "style noise changed semantics (seed {seed})"
            );
        }
    }

    #[test]
    fn glitchy_model_sometimes_emits_garbage() {
        let lm = SyntheticLm::new(LmConfig {
            glitch_prob: 1.0,
            ..LmConfig::default()
        });
        let prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let text = lm.propose(&prompt, None, &mut rng(1)).unwrap();
        assert!(mualloy_syntax::parse_spec(&text).is_err());
    }

    #[test]
    fn unparsable_prompt_yields_none() {
        let lm = SyntheticLm::default();
        let prompt = Prompt {
            source: "sig {".to_string(),
            ..Prompt::default()
        };
        assert!(lm.propose(&prompt, None, &mut rng(0)).is_none());
    }

    /// Proposes 60 times on one rng stream, on `prompt` as given or on a
    /// copy without its preparation (so every call prepares afresh), and
    /// returns the texts plus the stream's next draw.
    fn transcript(
        prompt: &Prompt,
        guidance: Option<&Guidance>,
        reuse: bool,
    ) -> (Vec<Option<String>>, u64) {
        let lm = SyntheticLm::default();
        let bare = Prompt {
            prepared: None,
            ..prompt.clone()
        };
        let prompt = if reuse { prompt } else { &bare };
        let mut r = rng(2024);
        let texts = (0..60)
            .map(|_| lm.propose(prompt, guidance, &mut r))
            .collect();
        (texts, r.gen())
    }

    #[test]
    fn reused_preparation_proposes_byte_identical_text() {
        let spec = mualloy_syntax::parse_spec(FAULTY).unwrap();
        let fact_start = FAULTY.find("some n: N").unwrap();
        let loc = vec![mualloy_syntax::Span::new(fact_start, fact_start + 30)];
        let located = ProblemHints {
            sites: specrepair_core::sites_for_spans(&spec, &loc),
            loc: loc.clone(),
            ..ProblemHints::default()
        };
        assert!(!located.sites.is_empty());
        let fixed = ProblemHints {
            loc,
            fix: vec!["replace `some` with `no`".to_string()],
            ..ProblemHints::default()
        };
        let site_weights: Vec<(NodeId, f64)> = mualloy_syntax::walk::collect_sites(&spec)
            .iter()
            .filter(|s| s.is_formula)
            .enumerate()
            .map(|(i, s)| (s.id, 1.0 + i as f64))
            .collect();
        let guided = Guidance {
            site_weights,
            restrict_top: Some(2),
        };
        let cases = [
            (Prompt::new(FAULTY, located), None),
            (Prompt::new(FAULTY, fixed), None),
            (Prompt::new(FAULTY, ProblemHints::default()), Some(&guided)),
        ];
        for (prompt, guidance) in &cases {
            assert!(prompt.prepared.is_some());
            let reused = transcript(prompt, *guidance, true);
            assert_eq!(reused, transcript(prompt, *guidance, false));
            assert!(reused.0.iter().all(Option::is_some));
        }
        // A preparation of another source is ignored, not trusted.
        let stale = Prompt {
            prepared: Prompt::new("sig A {} fact { some A }", ProblemHints::default()).prepared,
            ..cases[0].0.clone()
        };
        assert_eq!(
            transcript(&stale, None, true),
            transcript(&cases[0].0, None, true)
        );
        // An unparsable source proposes nothing, prepared or not.
        let garbage = Prompt::new("sig {", ProblemHints::default());
        for reuse in [true, false] {
            assert!(transcript(&garbage, None, reuse)
                .0
                .iter()
                .all(Option::is_none));
        }
    }
}
