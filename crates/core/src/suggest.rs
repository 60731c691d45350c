//! Query suggestion (paper §5).
//!
//! Two mechanisms, exactly as the demo describes:
//!
//! * **Token → resource suggestion**: "When TriniT determines that
//!   matches for these tokens have a significant overlap with matches for
//!   highly related KG resources ..., these resources are suggested to
//!   the user for use in future queries."
//! * **Rule-invocation notices**: "When a structural relaxation rule
//!   (e.g. a predicate inversion rule) is invoked and contributes to the
//!   final answer set, TriniT informs the user of this effect."

use std::collections::HashMap;

use trinit_query::{Answer, Query};
use trinit_relax::{QTerm, RuleKind, RuleSet};
use trinit_shard::ShardedStore;
use trinit_xkg::{args_pairs, TermId};

/// One suggestion shown to the user after a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Suggestion {
    /// Replace a textual token with a canonical KG resource.
    ReplaceToken {
        /// The token as written by the user.
        token: String,
        /// The suggested canonical resource.
        resource: String,
        /// Overlap fraction of the token's matches covered by the
        /// resource's matches.
        overlap: f64,
        /// True if the overlap is with *reversed* arguments: the resource
        /// expresses the inverse relation (`'studied under'` vs
        /// `hasStudent`), so the suggestion implies swapping S and O.
        inverted: bool,
    },
    /// A relaxation rule was invoked and contributed answers.
    RuleInvoked {
        /// The rule's human-readable label.
        rule: String,
        /// The rule's weight.
        weight: f64,
        /// Whether the rule was structural (inversion/multi-pattern),
        /// which the paper calls out specially.
        structural: bool,
    },
}

impl Suggestion {
    /// Renders the suggestion as one line of text.
    pub fn render(&self) -> String {
        match self {
            Suggestion::ReplaceToken {
                token,
                resource,
                overlap,
                inverted,
            } => {
                let direction = if *inverted {
                    " with swapped arguments"
                } else {
                    ""
                };
                format!(
                    "consider the KG resource `{resource}`{direction} instead of '{token}' \
                     ({:.0}% of its matches are covered)",
                    overlap * 100.0
                )
            }
            Suggestion::RuleInvoked {
                rule,
                weight,
                structural,
            } => {
                if *structural {
                    format!(
                        "structural relaxation was applied: {rule} (weight {weight:.2})"
                    )
                } else {
                    format!("relaxation was applied: {rule} (weight {weight:.2})")
                }
            }
        }
    }
}

/// Configuration for suggestion generation.
#[derive(Debug, Clone)]
pub struct SuggestConfig {
    /// Minimum match-overlap fraction for token → resource suggestions.
    pub min_overlap: f64,
    /// Maximum suggestions per token.
    pub per_token: usize,
}

impl Default for SuggestConfig {
    fn default() -> Self {
        SuggestConfig {
            min_overlap: 0.3,
            per_token: 3,
        }
    }
}

/// Size of the intersection of two sorted, deduplicated pair lists.
fn sorted_overlap(a: &[(TermId, TermId)], b: &[(TermId, TermId)]) -> usize {
    let mut i = 0;
    let mut j = 0;
    let mut overlap = 0;
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                overlap += 1;
                i += 1;
                j += 1;
            }
        }
    }
    overlap
}

/// Suggests canonical resources for token predicates used in `query`.
///
/// For a token predicate `t`, every resource predicate `r` with
/// `|args(t) ∩ args(r)| / |args(t)| ≥ min_overlap` is suggested,
/// strongest overlap first. A predicate's argument set is the sorted
/// union of every shard's (subject-hash partitioning spreads one
/// predicate's triples across shards).
pub fn token_resource_suggestions(
    store: &ShardedStore,
    query: &Query,
    cfg: &SuggestConfig,
) -> Vec<Suggestion> {
    let args_of = |p: TermId| {
        let mut pairs: Vec<(TermId, TermId)> = store
            .shards()
            .iter()
            .flat_map(|shard| args_pairs(shard, p))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    };
    let resolve = |id: TermId| {
        store
            .dict()
            .resolve(id)
            .map_or_else(|| "<unknown>".to_string(), str::to_string)
    };
    let mut out = Vec::new();

    // Token predicates appearing in the query.
    let mut token_preds: Vec<TermId> = query
        .patterns
        .iter()
        .filter_map(|p| p.p.term())
        .filter(|t| t.is_token())
        .collect();
    token_preds.sort_unstable();
    token_preds.dedup();

    for tp in token_preds {
        let token_args = args_of(tp);
        if token_args.is_empty() {
            continue;
        }
        let mut candidates: Vec<(f64, bool, TermId)> = Vec::new();
        for &rp in store.predicates() {
            if !rp.is_resource() {
                continue;
            }
            let res_args = args_of(rp);
            let forward = sorted_overlap(&token_args, &res_args);
            // Inverted relations ('studied under' vs hasStudent) overlap
            // only with swapped arguments.
            let reversed = token_args
                .iter()
                .filter(|(a, b)| res_args.binary_search(&(*b, *a)).is_ok())
                .count();
            let (overlap, inverted) = if reversed > forward {
                (reversed, true)
            } else {
                (forward, false)
            };
            let frac = overlap as f64 / token_args.len() as f64;
            if frac >= cfg.min_overlap {
                candidates.push((frac, inverted, rp));
            }
        }
        candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.2.cmp(&b.2)));
        for (frac, inverted, rp) in candidates.into_iter().take(cfg.per_token) {
            out.push(Suggestion::ReplaceToken {
                token: resolve(tp),
                resource: resolve(rp),
                overlap: frac,
                inverted,
            });
        }
    }
    out
}

/// Reports which relaxation rules contributed to the answer set.
pub fn rule_invocation_notices(rules: &RuleSet, answers: &[Answer]) -> Vec<Suggestion> {
    let mut counts: HashMap<trinit_relax::RuleId, usize> = HashMap::new();
    for a in answers {
        for r in &a.derivation.rules {
            *counts.entry(*r).or_insert(0) += 1;
        }
    }
    let mut ids: Vec<_> = counts.keys().copied().collect();
    ids.sort_unstable();
    ids.into_iter()
        .map(|id| {
            let rule = rules.get(id);
            Suggestion::RuleInvoked {
                rule: rule.label.clone(),
                weight: rule.weight,
                structural: matches!(rule.kind, RuleKind::Inversion | RuleKind::Structural),
            }
        })
        .collect()
}

/// All suggestions for a finished query.
pub fn suggest(
    store: &ShardedStore,
    query: &Query,
    rules: &RuleSet,
    answers: &[Answer],
    cfg: &SuggestConfig,
) -> Vec<Suggestion> {
    let mut out = token_resource_suggestions(store, query, cfg);
    out.extend(rule_invocation_notices(rules, answers));
    out
}

/// Helper: true if any query pattern uses a token term anywhere.
pub fn query_uses_tokens(query: &Query) -> bool {
    query.patterns.iter().any(|p| {
        p.slots()
            .into_iter()
            .any(|s| matches!(s, QTerm::Term(t) if t.is_token()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinit_query::QueryBuilder;
    use trinit_xkg::{XkgBuilder, XkgStore};

    fn one_shard(store: XkgStore) -> ShardedStore {
        ShardedStore::from_shards(vec![store])
    }

    /// Store where the token 'worked at' heavily overlaps `affiliation`.
    fn overlapping_store() -> XkgStore {
        let mut b = XkgBuilder::new();
        for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2"), ("d", "U3")] {
            b.add_kg_resources(s, "affiliation", o);
        }
        let src = b.intern_source("d0");
        let worked = b.dict_mut().token("worked at");
        for (s, o) in [("a", "U1"), ("b", "U1"), ("c", "U2")] {
            let s = b.dict_mut().resource(s);
            let o = b.dict_mut().resource(o);
            b.add_extracted(s, worked, o, 0.8, src);
        }
        b.build()
    }

    #[test]
    fn token_predicate_suggests_resource() {
        let store = overlapping_store();
        let q = QueryBuilder::new(&store)
            .pattern_r_t_v("a", "worked at", "y")
            .build();
        let suggestions =
            token_resource_suggestions(&one_shard(store), &q, &SuggestConfig::default());
        assert!(!suggestions.is_empty());
        match &suggestions[0] {
            Suggestion::ReplaceToken {
                token,
                resource,
                overlap,
                inverted,
            } => {
                assert_eq!(token, "worked at");
                assert_eq!(resource, "affiliation");
                assert!((overlap - 1.0).abs() < 1e-9, "all 3 pairs covered");
                assert!(!inverted);
            }
            other => panic!("unexpected suggestion {other:?}"),
        }
    }

    #[test]
    fn no_suggestions_for_resource_only_query() {
        let store = overlapping_store();
        let q = QueryBuilder::new(&store)
            .pattern_v_r_v("x", "affiliation", "y")
            .build();
        assert!(!query_uses_tokens(&q));
        assert!(token_resource_suggestions(&one_shard(store), &q, &SuggestConfig::default()).is_empty());
    }

    #[test]
    fn threshold_filters_weak_overlap() {
        let store = overlapping_store();
        let q = QueryBuilder::new(&store)
            .pattern_r_t_v("a", "worked at", "y")
            .build();
        let none = token_resource_suggestions(
            &one_shard(store),
            &q,
            &SuggestConfig {
                min_overlap: 1.01,
                per_token: 3,
            },
        );
        assert!(none.is_empty());
    }

    #[test]
    fn inverted_token_suggests_resource_with_swap() {
        // 'studied under' pairs are reversed hasStudent pairs.
        let mut b = XkgBuilder::new();
        for (adv, st) in [("A1", "S1"), ("A2", "S2"), ("A3", "S3")] {
            b.add_kg_resources(adv, "hasStudent", st);
        }
        let src = b.intern_source("d");
        let studied = b.dict_mut().token("studied under");
        for (st, adv) in [("S1", "A1"), ("S2", "A2")] {
            let s = b.dict_mut().resource(st);
            let o = b.dict_mut().resource(adv);
            b.add_extracted(s, studied, o, 0.7, src);
        }
        let store = b.build();
        let q = QueryBuilder::new(&store)
            .pattern_r_t_v("S1", "studied under", "y")
            .build();
        let suggestions =
            token_resource_suggestions(&one_shard(store), &q, &SuggestConfig::default());
        let hit = suggestions.iter().any(|s| matches!(
            s,
            Suggestion::ReplaceToken { resource, inverted: true, .. }
                if resource == "hasStudent"
        ));
        assert!(hit, "expected inverted suggestion: {suggestions:?}");
    }

    #[test]
    fn rule_notices_from_answers() {
        use trinit_query::{Answer, Bindings, Derivation};
        use trinit_relax::{Rule, RuleProvenance, RuleSet};
        let store = overlapping_store();
        let aff = store.resource("affiliation").unwrap();
        let worked = store.token("worked at").unwrap();
        let mut rules = RuleSet::new();
        let id = rules.add(Rule::inversion(
            "inv",
            aff,
            worked,
            0.9,
            RuleProvenance::MinedInversion,
        ));
        let answer = Answer {
            key: vec![],
            bindings: Bindings::new(0),
            score: -1.0,
            derivation: Derivation {
                triples: vec![],
                rules: vec![id],
                rule_weight: 0.9,
            },
        };
        let notices = rule_invocation_notices(&rules, &[answer]);
        assert_eq!(notices.len(), 1);
        match &notices[0] {
            Suggestion::RuleInvoked { structural, .. } => assert!(*structural),
            other => panic!("unexpected {other:?}"),
        }
        assert!(notices[0].render().contains("structural"));
    }

    #[test]
    fn render_replace_token() {
        let s = Suggestion::ReplaceToken {
            token: "worked at".into(),
            resource: "affiliation".into(),
            overlap: 0.75,
            inverted: false,
        };
        let text = s.render();
        assert!(text.contains("affiliation"));
        assert!(text.contains("75%"));
    }
}
