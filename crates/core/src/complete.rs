//! Auto-completion over the XKG vocabulary.
//!
//! "User input is eased by auto-completion, guiding users towards
//! meaningful query formulations." (paper §5). Completion is
//! case-insensitive prefix search over all resources, token phrases, and
//! literals in the store's dictionary.

use trinit_xkg::{TermKind, XkgStore};

/// A completion candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The completed term text.
    pub text: String,
    /// Which kind of term it is.
    pub kind: TermKind,
}

/// A prebuilt completion index (sorted lowercase vocabulary).
#[derive(Debug)]
pub struct Completer {
    // (lowercased text, original text, kind), sorted by lowercased text.
    entries: Vec<(String, String, TermKind)>,
    /// Dictionary size when indexed. Dictionaries only append, so a
    /// larger one holds terms this index lacks.
    indexed: usize,
}

impl Completer {
    /// Builds the completer from a store's dictionary.
    pub fn build(store: &XkgStore) -> Completer {
        let mut entries: Vec<(String, String, TermKind)> = store
            .dict()
            .iter()
            .map(|(id, text)| (text.to_lowercase(), text.to_string(), id.kind()))
            .collect();
        entries.sort();
        entries.dedup();
        Completer {
            entries,
            indexed: store.dict().len(),
        }
    }

    /// Size of the dictionary this index was built from.
    pub(crate) fn indexed_terms(&self) -> usize {
        self.indexed
    }

    /// Number of indexed terms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Completes a prefix (case-insensitive), returning up to `limit`
    /// candidates in lexicographic order.
    pub fn complete(&self, prefix: &str, limit: usize) -> Vec<Completion> {
        let needle = prefix.to_lowercase();
        let start = self.entries.partition_point(|(low, _, _)| low < &needle);
        self.entries[start..]
            .iter()
            .take_while(|(low, _, _)| low.starts_with(&needle))
            .take(limit)
            .map(|(_, text, kind)| Completion {
                text: text.clone(),
                kind: *kind,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_store;

    #[test]
    fn completes_resources_case_insensitively() {
        let store = paper_store();
        let c = Completer::build(&store);
        let results = c.complete("albert", 10);
        assert!(results.iter().any(|r| r.text == "AlbertEinstein"));
    }

    #[test]
    fn completes_token_phrases() {
        let store = paper_store();
        let c = Completer::build(&store);
        let results = c.complete("won", 10);
        assert!(results
            .iter()
            .any(|r| r.text == "won nobel for" && r.kind == TermKind::Token));
    }

    #[test]
    fn limit_is_respected() {
        let store = paper_store();
        let c = Completer::build(&store);
        assert!(c.complete("", 5).len() <= 5);
        assert!(!c.is_empty());
    }

    #[test]
    fn no_match_returns_empty() {
        let store = paper_store();
        let c = Completer::build(&store);
        assert!(c.complete("zzzzz", 10).is_empty());
    }

    #[test]
    fn results_are_sorted() {
        let store = paper_store();
        let c = Completer::build(&store);
        let results = c.complete("", 100);
        let mut sorted = results.clone();
        sorted.sort_by_key(|a| a.text.to_lowercase());
        assert_eq!(results, sorted);
    }
}
