//! Multi-document collections.
//!
//! The paper's closing claim is that the model "can accommodate a very
//! large collection of XML documents". Fragments never span documents
//! (Definition 2 is per-tree), so a collection is evaluated document by
//! document — but indexing, term statistics and result bookkeeping need a
//! collection-level substrate, which this module provides.
//!
//! Each document's index is either built in memory ([`Collection::add`])
//! or decoded from a persistent `.xidx` segment
//! ([`Collection::add_with_segment`]), in which case term selections run
//! off lazily-materialized postings. [`Collection::index`] hands out a
//! uniform [`IndexHandle`] over both. Structural arithmetic always runs
//! off the document's own prefix labels.

use crate::index::{InvertedIndex, Postings, PostingsSource};
use crate::segment::SegmentIndex;
use crate::tree::Document;
use std::collections::BTreeMap;

/// Identifier of a document within a [`Collection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(pub u32);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// One document's index: in-memory or segment-backed.
#[derive(Debug)]
enum DocIndex {
    Mem(InvertedIndex),
    // Boxed: SegmentIndex is several times larger than InvertedIndex's
    // map header.
    Seg(Box<SegmentIndex>),
}

/// A borrowed view of one document's index, uniform over the in-memory
/// and segment-backed representations. Copyable; implements
/// [`PostingsSource`] so it plugs straight into the query engine.
#[derive(Debug, Clone, Copy)]
pub struct IndexHandle<'a>(&'a DocIndex);

impl<'a> IndexHandle<'a> {
    /// The postings for a (normalized) term, in document order.
    pub fn postings(&self, term: &str) -> Postings<'a> {
        match self.0 {
            DocIndex::Mem(m) => Postings::Borrowed(m.lookup(term)),
            DocIndex::Seg(s) => Postings::Shared(s.lookup(term)),
        }
    }

    /// Document frequency of a term (no posting materialization for
    /// segment-backed indexes).
    pub fn df(&self, term: &str) -> usize {
        match self.0 {
            DocIndex::Mem(m) => m.df(term),
            DocIndex::Seg(s) => s.df(term),
        }
    }

    /// Whether the document contains the term at all.
    pub fn has_term(&self, term: &str) -> bool {
        match self.0 {
            DocIndex::Mem(m) => !m.lookup(term).is_empty(),
            DocIndex::Seg(s) => s.has_term(term),
        }
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        match self.0 {
            DocIndex::Mem(m) => m.term_count(),
            DocIndex::Seg(s) => s.term_count(),
        }
    }

    /// The backing segment, if this index is segment-backed.
    pub fn segment(&self) -> Option<&'a SegmentIndex> {
        match self.0 {
            DocIndex::Mem(_) => None,
            DocIndex::Seg(s) => Some(s),
        }
    }
}

impl PostingsSource for IndexHandle<'_> {
    fn postings(&self, term: &str) -> Postings<'_> {
        IndexHandle::postings(self, term)
    }

    fn df(&self, term: &str) -> usize {
        IndexHandle::df(self, term)
    }

    fn needs_load(&self, term: &str) -> bool {
        match self.0 {
            DocIndex::Mem(_) => false,
            DocIndex::Seg(s) => !s.is_loaded(term),
        }
    }

    fn persistent(&self) -> bool {
        matches!(self.0, DocIndex::Seg(_))
    }
}

/// A named set of documents with per-document indexes and collection-wide
/// term statistics.
#[derive(Debug, Default)]
pub struct Collection {
    names: Vec<String>,
    docs: Vec<Document>,
    indexes: Vec<DocIndex>,
    /// term → number of documents containing it.
    doc_freq: BTreeMap<String, u32>,
}

impl Collection {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a document under a display name, building its index in
    /// memory; returns its id.
    pub fn add(&mut self, name: impl Into<String>, doc: Document) -> DocId {
        let index = InvertedIndex::build(&doc);
        for (term, _) in index.terms() {
            *self.doc_freq.entry(term.to_string()).or_insert(0) += 1;
        }
        self.push(name.into(), doc, DocIndex::Mem(index))
    }

    /// Add a document backed by a decoded index segment: term statistics
    /// come from the segment's directory and postings stay lazy.
    pub fn add_with_segment(
        &mut self,
        name: impl Into<String>,
        doc: Document,
        segment: SegmentIndex,
    ) -> DocId {
        for term in segment.term_names() {
            *self.doc_freq.entry(term.to_string()).or_insert(0) += 1;
        }
        self.push(name.into(), doc, DocIndex::Seg(Box::new(segment)))
    }

    fn push(&mut self, name: String, doc: Document, index: DocIndex) -> DocId {
        let id = DocId(self.docs.len() as u32);
        self.names.push(name);
        self.docs.push(doc);
        self.indexes.push(index);
        id
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The document ids in insertion order.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = DocId> {
        (0..self.docs.len() as u32).map(DocId)
    }

    /// The document behind an id.
    #[track_caller]
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.0 as usize]
    }

    /// The per-document index behind an id. (Named for the domain object,
    /// not `std::ops::Index` — a collection is not indexable by `DocId`
    /// into one canonical output type.)
    #[track_caller]
    #[allow(clippy::should_implement_trait)]
    pub fn index(&self, id: DocId) -> IndexHandle<'_> {
        IndexHandle(&self.indexes[id.0 as usize])
    }

    /// The display name behind an id.
    #[track_caller]
    pub fn name(&self, id: DocId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Collection-level document frequency of a (normalized) term.
    pub fn doc_freq(&self, term: &str) -> u32 {
        self.doc_freq.get(term).copied().unwrap_or(0)
    }

    /// Documents containing *all* the given terms — the candidates a
    /// conjunctive query can possibly answer from. Directory-only for
    /// segment-backed documents: no postings are materialized.
    pub fn candidate_docs<'a>(&'a self, terms: &'a [String]) -> impl Iterator<Item = DocId> + 'a {
        self.ids()
            .filter(move |&id| terms.iter().all(|t| self.index(id).has_term(t)))
    }

    /// Total node count across all documents.
    pub fn total_nodes(&self) -> usize {
        self.docs.iter().map(Document::len).sum()
    }

    /// How many documents are segment-backed.
    pub fn segment_count(&self) -> usize {
        self.indexes
            .iter()
            .filter(|i| matches!(i, DocIndex::Seg(_)))
            .count()
    }

    /// Total encoded bytes across all loaded index segments.
    pub fn index_bytes(&self) -> u64 {
        self.indexes
            .iter()
            .map(|i| match i {
                DocIndex::Mem(_) => 0,
                DocIndex::Seg(s) => s.bytes_len() as u64,
            })
            .sum()
    }

    /// Total terms lazily materialized across all segments so far.
    pub fn index_terms_loaded(&self) -> u64 {
        self.indexes
            .iter()
            .map(|i| match i {
                DocIndex::Mem(_) => 0,
                DocIndex::Seg(s) => s.terms_loaded(),
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;
    use crate::segment::encode_segment;

    fn collection() -> Collection {
        let mut c = Collection::new();
        c.add("a.xml", parse_str("<a><p>alpha beta</p></a>").unwrap());
        c.add(
            "b.xml",
            parse_str("<b><p>alpha</p><p>gamma</p></b>").unwrap(),
        );
        c.add("c.xml", parse_str("<c><p>delta</p></c>").unwrap());
        c
    }

    #[test]
    fn add_and_lookup() {
        let c = collection();
        assert_eq!(c.len(), 3);
        assert_eq!(c.name(DocId(1)), "b.xml");
        assert_eq!(c.doc(DocId(0)).len(), 2);
        assert_eq!(c.index(DocId(1)).df("alpha"), 1);
        assert_eq!(c.total_nodes(), 2 + 3 + 2);
        assert_eq!(c.segment_count(), 0);
        assert_eq!(c.index_bytes(), 0);
    }

    #[test]
    fn collection_doc_freq() {
        let c = collection();
        assert_eq!(c.doc_freq("alpha"), 2);
        assert_eq!(c.doc_freq("delta"), 1);
        assert_eq!(c.doc_freq("absent"), 0);
        // Tag names count as terms too.
        assert_eq!(c.doc_freq("p"), 3);
    }

    #[test]
    fn candidate_docs_conjunctive() {
        let c = collection();
        let terms = vec!["alpha".to_string(), "beta".to_string()];
        let hits: Vec<DocId> = c.candidate_docs(&terms).collect();
        assert_eq!(hits, vec![DocId(0)]);
        let terms = vec!["alpha".to_string()];
        assert_eq!(c.candidate_docs(&terms).count(), 2);
        let terms = vec!["alpha".to_string(), "zzz".to_string()];
        assert_eq!(c.candidate_docs(&terms).count(), 0);
    }

    #[test]
    fn empty_collection() {
        let c = Collection::new();
        assert!(c.is_empty());
        assert_eq!(c.ids().count(), 0);
        assert_eq!(c.doc_freq("x"), 0);
    }

    #[test]
    fn segment_backed_documents_match_memory_backed_ones() {
        let xml_a = "<a><p>alpha beta</p></a>";
        let xml_b = "<b><p>alpha</p><p>gamma</p></b>";
        let mut mem = Collection::new();
        mem.add("a.xml", parse_str(xml_a).unwrap());
        mem.add("b.xml", parse_str(xml_b).unwrap());
        let mut seg = Collection::new();
        for (name, xml) in [("a.xml", xml_a), ("b.xml", xml_b)] {
            let d = parse_str(xml).unwrap();
            let s = SegmentIndex::from_bytes(&encode_segment(&d)).unwrap();
            seg.add_with_segment(name, d, s);
        }
        assert_eq!(seg.segment_count(), 2);
        assert!(seg.index_bytes() > 0);
        assert_eq!(seg.index_terms_loaded(), 0);
        for term in ["alpha", "beta", "gamma", "p", "absent"] {
            assert_eq!(seg.doc_freq(term), mem.doc_freq(term), "doc_freq {term}");
            for id in mem.ids() {
                assert_eq!(
                    &*seg.index(id).postings(term),
                    &*mem.index(id).postings(term),
                    "postings {term} {id}"
                );
                assert_eq!(seg.index(id).df(term), mem.index(id).df(term));
                assert_eq!(seg.index(id).has_term(term), mem.index(id).has_term(term));
            }
        }
        // Lookups above materialized some terms lazily.
        assert!(seg.index_terms_loaded() > 0);
        // Both copies of each document navigate by the same labels.
        for id in mem.ids() {
            assert_eq!(seg.doc(id).labels(), mem.doc(id).labels(), "labels {id}");
        }
        // Candidate filtering agrees and stays directory-only.
        let terms = vec!["alpha".to_string()];
        assert_eq!(
            seg.candidate_docs(&terms).collect::<Vec<_>>(),
            mem.candidate_docs(&terms).collect::<Vec<_>>()
        );
    }
}
