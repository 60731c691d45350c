//! Term identifiers for the extended knowledge graph.
//!
//! An XKG (extended knowledge graph) contains three kinds of terms:
//!
//! * **Resources** — canonical KG entities, classes, and predicates
//!   (e.g. `AlbertEinstein`, `bornIn`).
//! * **Tokens** — textual phrases harvested by Open IE that occupy S, P, or O
//!   slots of extracted triples (e.g. `'won Nobel for'`).
//! * **Literals** — typed values such as dates, numbers, and plain strings
//!   (e.g. `'1879-03-14'`).
//!
//! A [`TermId`] packs the kind and a dense per-kind index into a single
//! `u32`, so triples are 12 bytes and fit comfortably in index vectors.

use std::fmt;

/// The kind of a term in the XKG.
///
/// The discriminant values are stable: they are packed into the top bits of
/// [`TermId`] and are relied upon by the permutation indexes for ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TermKind {
    /// A canonical KG resource (entity, class, or predicate).
    Resource = 0,
    /// A textual token produced by Open IE extraction.
    Token = 1,
    /// A literal value (string, number, date).
    Literal = 2,
}

impl TermKind {
    /// All term kinds, in discriminant order.
    pub const ALL: [TermKind; 3] = [TermKind::Resource, TermKind::Token, TermKind::Literal];

    /// Recovers a kind from its packed discriminant.
    #[inline]
    pub(crate) fn from_tag(tag: u32) -> TermKind {
        match tag {
            0 => TermKind::Resource,
            1 => TermKind::Token,
            _ => TermKind::Literal,
        }
    }
}

impl fmt::Display for TermKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TermKind::Resource => "resource",
            TermKind::Token => "token",
            TermKind::Literal => "literal",
        };
        f.write_str(name)
    }
}

/// A compact identifier for an interned term.
///
/// The top two bits carry the [`TermKind`]; the low 30 bits are a dense
/// per-kind index assigned by the [`TermDict`](crate::dict::TermDict). This
/// bounds each kind at 2^30 (~1 billion) terms, far above the paper's 440 M
/// *triples*.
///
/// `TermId`s order first by kind, then by interning order. Ordering is only
/// used internally (index keys); it carries no semantics.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(u32);

/// Maximum per-kind index representable by a [`TermId`].
pub const MAX_TERM_INDEX: u32 = (1 << 30) - 1;

impl TermId {
    /// Packs a kind and per-kind index into a `TermId`.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds [`MAX_TERM_INDEX`].
    #[inline]
    pub fn new(kind: TermKind, index: u32) -> TermId {
        assert!(index <= MAX_TERM_INDEX, "term index overflow: {index}");
        TermId(((kind as u32) << 30) | index)
    }

    /// The kind of this term.
    #[inline]
    pub fn kind(self) -> TermKind {
        TermKind::from_tag(self.0 >> 30)
    }

    /// The dense per-kind index of this term.
    #[inline]
    pub fn index(self) -> u32 {
        self.0 & MAX_TERM_INDEX
    }

    /// The raw packed representation (kind tag + index).
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a `TermId` from [`TermId::raw`] output.
    #[inline]
    pub const fn from_raw(raw: u32) -> TermId {
        TermId(raw)
    }

    /// True if this term is a canonical KG resource.
    #[inline]
    pub fn is_resource(self) -> bool {
        self.kind() == TermKind::Resource
    }

    /// True if this term is a textual Open IE token.
    #[inline]
    pub fn is_token(self) -> bool {
        self.kind() == TermKind::Token
    }

    /// True if this term is a literal value.
    #[inline]
    pub fn is_literal(self) -> bool {
        self.kind() == TermKind::Literal
    }

    /// The shard (in `0..shards`) this term hashes to under the store's
    /// subject-hash partitioning scheme (see
    /// [`XkgBuilder::build_sharded`](crate::store::XkgBuilder::build_sharded)).
    ///
    /// Deterministic across processes: a Fibonacci-multiplicative hash of
    /// the packed id followed by a fixed-point range reduction, so every
    /// component that needs to locate a subject's shard (builders,
    /// executors, condition oracles) agrees without sharing state.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    #[inline]
    pub fn shard_of(self, shards: usize) -> usize {
        assert!(shards > 0, "shard count must be positive");
        let h = self.0.wrapping_mul(0x9E37_79B9);
        ((u64::from(h) * shards as u64) >> 32) as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.kind(), self.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip_all_kinds() {
        for kind in TermKind::ALL {
            for index in [0, 1, 42, MAX_TERM_INDEX] {
                let id = TermId::new(kind, index);
                assert_eq!(id.kind(), kind);
                assert_eq!(id.index(), index);
                assert_eq!(TermId::from_raw(id.raw()), id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "term index overflow")]
    fn index_overflow_panics() {
        let _ = TermId::new(TermKind::Resource, MAX_TERM_INDEX + 1);
    }

    #[test]
    fn ordering_groups_by_kind() {
        let r = TermId::new(TermKind::Resource, MAX_TERM_INDEX);
        let t = TermId::new(TermKind::Token, 0);
        let l = TermId::new(TermKind::Literal, 0);
        assert!(r < t && t < l);
    }

    #[test]
    fn kind_predicates() {
        assert!(TermId::new(TermKind::Resource, 3).is_resource());
        assert!(TermId::new(TermKind::Token, 3).is_token());
        assert!(TermId::new(TermKind::Literal, 3).is_literal());
    }

    #[test]
    fn debug_format_is_compact() {
        let id = TermId::new(TermKind::Token, 7);
        assert_eq!(format!("{id:?}"), "token#7");
    }
}
