//! Inverted keyword index: term → postings of node ids.
//!
//! Every query in the model starts with `F_i = σ_{keyword=k_i}(nodes(D))`
//! (§2.3). Scanning all nodes per query term is O(N · |text|); the index
//! makes it a lookup. The paper's own positioning ("no preprocessing of
//! data is carried out and all answer fragments of interest are computed
//! dynamically") refers to *fragment*-level precomputation à la INEX — a
//! plain keyword index is the assumed substrate of every cited system, and
//! we also provide [`InvertedIndex::scan_select`] to evaluate the selection
//! without the index for apples-to-apples baselines.

use crate::text::{keywords, node_contains, normalize_term};
use crate::tree::{Document, NodeId};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::Arc;

/// A posting list handed out by a [`PostingsSource`]: either borrowed
/// from an in-memory index or shared out of a lazily-decoded segment.
/// Derefs to `[NodeId]` so callers treat both uniformly.
#[derive(Debug, Clone)]
pub enum Postings<'a> {
    /// A slice borrowed from an [`InvertedIndex`].
    Borrowed(&'a [NodeId]),
    /// A cached decode shared out of a segment.
    Shared(Arc<[NodeId]>),
}

impl Deref for Postings<'_> {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        match self {
            Postings::Borrowed(s) => s,
            Postings::Shared(a) => a,
        }
    }
}

/// Anything that can answer `σ_{keyword=k}` selections: the in-memory
/// [`InvertedIndex`], a persistent
/// [`SegmentIndex`](crate::segment::SegmentIndex), or a collection's
/// per-document handle. The query engine is generic over this trait, so
/// every postings backend shares one code path.
pub trait PostingsSource {
    /// The postings for a (normalized) term, in document order.
    fn postings(&self, term: &str) -> Postings<'_>;

    /// Document frequency of a term. Sources with a directory answer
    /// this without materializing postings.
    fn df(&self, term: &str) -> usize {
        self.postings(term).len()
    }

    /// Whether looking `term` up now would lazily materialize it (used
    /// for `index:load:{term}` trace provenance).
    fn needs_load(&self, term: &str) -> bool {
        let _ = term;
        false
    }

    /// Whether this source was decoded from a persistent segment.
    fn persistent(&self) -> bool {
        false
    }
}

impl PostingsSource for InvertedIndex {
    fn postings(&self, term: &str) -> Postings<'_> {
        Postings::Borrowed(self.lookup(term))
    }
}

/// Immutable inverted index over one document.
///
/// Postings are sorted by node id (document order) and deduplicated.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    postings: BTreeMap<String, Vec<NodeId>>,
    doc_len: usize,
}

impl InvertedIndex {
    /// Build the index for a document: O(total tokens).
    pub fn build(doc: &Document) -> Self {
        let mut postings: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();
        for n in doc.node_ids() {
            for term in keywords(doc, n) {
                postings.entry(term).or_default().push(n);
            }
        }
        // keywords() already deduplicates per node and node_ids() is in
        // ascending order, so postings are sorted and unique by construction.
        InvertedIndex {
            postings,
            doc_len: doc.len(),
        }
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Number of nodes in the indexed document.
    pub fn doc_len(&self) -> usize {
        self.doc_len
    }

    /// The postings for a (normalized) term, in document order.
    pub fn lookup(&self, term: &str) -> &[NodeId] {
        self.postings.get(term).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Normalize a raw user term and look it up.
    pub fn lookup_raw(&self, raw: &str) -> &[NodeId] {
        match normalize_term(raw) {
            Some(t) => self.lookup(&t),
            None => &[],
        }
    }

    /// Document frequency of a term (posting length).
    pub fn df(&self, term: &str) -> usize {
        self.lookup(term).len()
    }

    /// Iterate all `(term, postings)` pairs in lexicographic term order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, &[NodeId])> {
        self.postings
            .iter()
            .map(|(t, p)| (t.as_str(), p.as_slice()))
    }

    /// Evaluate `σ_{keyword=k}(nodes(D))` by scanning the document instead
    /// of using the index. Provided so the benchmark harness can cost the
    /// index against the paper's "no preprocessing" stance.
    pub fn scan_select(doc: &Document, raw_term: &str) -> Vec<NodeId> {
        match normalize_term(raw_term) {
            Some(t) => doc
                .node_ids()
                .filter(|&n| node_contains(doc, n, &t))
                .collect(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;

    fn doc() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("article"); // n0
        b.leaf("title", "XQuery optimization"); // n1
        b.begin("section"); // n2
        b.leaf("par", "cost models for XQuery"); // n3
        b.leaf("par", "join ordering"); // n4
        b.end();
        b.end();
        b.finish().unwrap()
    }

    #[test]
    fn build_and_lookup() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.lookup("xquery"), &[NodeId(1), NodeId(3)]);
        assert_eq!(idx.lookup("join"), &[NodeId(4)]);
        assert_eq!(idx.lookup("nothing"), &[] as &[NodeId]);
        // Tag names are indexed too.
        assert_eq!(idx.lookup("par"), &[NodeId(3), NodeId(4)]);
    }

    #[test]
    fn lookup_raw_normalizes() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.lookup_raw("XQuery"), &[NodeId(1), NodeId(3)]);
        assert_eq!(idx.lookup_raw("  "), &[] as &[NodeId]);
    }

    #[test]
    fn scan_select_agrees_with_index() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        for term in ["xquery", "join", "optimization", "par", "absent"] {
            assert_eq!(
                InvertedIndex::scan_select(&d, term),
                idx.lookup(term).to_vec(),
                "term {term}"
            );
        }
    }

    #[test]
    fn df_and_counts() {
        let d = doc();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.df("xquery"), 2);
        assert_eq!(idx.doc_len(), 5);
        assert!(idx.term_count() >= 8);
    }

    #[test]
    fn postings_sorted_unique() {
        let mut b = DocumentBuilder::new();
        b.begin("a");
        b.text("dup dup dup");
        b.leaf("b", "dup");
        b.end();
        let d = b.finish().unwrap();
        let idx = InvertedIndex::build(&d);
        assert_eq!(idx.lookup("dup"), &[NodeId(0), NodeId(1)]);
    }
}
