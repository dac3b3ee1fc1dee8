//! Differential property tests for the persistent index layer:
//!
//! * **Label arithmetic vs tree walks** — a [`Document`]'s prefix labels
//!   must answer `depth`/`parent`/`ancestors`/`lca`/`path` and the
//!   ancestor tests identically to parent-pointer walks, on every node
//!   pair of randomly-shaped trees. Every join kernel navigates by the
//!   labels, so any divergence here is a silent wrong-answer bug. The
//!   walks below are the oracle; the library has no other copy of them.
//! * **Indexed selection vs document scan** — an encoded-and-decoded
//!   [`SegmentIndex`] must return the same postings as the index-free
//!   [`InvertedIndex::scan_select`] document scan and as the in-memory
//!   [`InvertedIndex`], for raw query terms in any case, punctuation, or
//!   script, because every path normalizes through
//!   [`normalize_term`](xfrag_doc::text::normalize_term).
//! * **Corruption** — any single flipped byte of an encoded segment is
//!   caught by the trailing checksum; the decoder never serves garbage.

use proptest::prelude::*;
use xfrag_doc::text::normalize_term;
use xfrag_doc::{encode_segment, Document, DocumentBuilder, InvertedIndex, NodeId, SegmentIndex};

/// Oracle: the proper ancestors of `n`, parent first, by climbing parent
/// pointers.
fn walk_ancestors(doc: &Document, n: NodeId) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut x = n;
    while let Some(p) = doc.parent(x) {
        out.push(p);
        x = p;
    }
    out
}

/// Oracle: the lowest common ancestor, by climbing to equal depth and
/// then in lockstep.
fn walk_lca(doc: &Document, a: NodeId, b: NodeId) -> NodeId {
    let up = |n: NodeId| doc.parent(n).expect("non-root has a parent");
    let (mut x, mut y) = (a, b);
    while doc.depth(x) > doc.depth(y) {
        x = up(x);
    }
    while doc.depth(y) > doc.depth(x) {
        y = up(y);
    }
    while x != y {
        x = up(x);
        y = up(y);
    }
    x
}

/// Oracle: the path between `a` and `b` — the `a`-side bottom-up, the
/// `b`-side bottom-up, the LCA last.
fn walk_path(doc: &Document, a: NodeId, b: NodeId) -> Vec<NodeId> {
    let l = walk_lca(doc, a, b);
    let mut out = Vec::new();
    for start in [a, b] {
        let mut x = start;
        while x != l {
            out.push(x);
            x = doc.parent(x).expect("non-root has a parent");
        }
    }
    out.push(l);
    out
}

/// Random tree from a parent-choice vector (the `proptest_doc` scheme):
/// node `i + 1` hangs under `choices[i] % (i + 1)`, so every vector of
/// choices is a valid pre-order tree. Each node carries one word of
/// direct text from the pool.
fn build_tree(choices: &[usize], words: &[String]) -> Document {
    let n = choices.len() + 1;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &c) in choices.iter().enumerate() {
        children[c % (i + 1)].push(i + 1);
    }
    fn emit(b: &mut DocumentBuilder, children: &[Vec<usize>], v: usize, words: &[String]) {
        b.begin(format!("e{v}"));
        if !words.is_empty() {
            b.text(&words[v % words.len()]);
        }
        for &c in &children[v] {
            emit(b, children, c, words);
        }
        b.end();
    }
    let mut b = DocumentBuilder::new();
    emit(&mut b, &children, 0, words);
    b.finish().expect("generated tree is valid")
}

/// A vocabulary that stresses normalization: mixed case, combining
/// accents, non-Latin scripts, and case pairs that do *not* round-trip
/// (ß upper-cases to SS, so "Füße" and "FÜSSE" are distinct terms).
const WORDS: [&str; 14] = [
    "XQuery",
    "xquery",
    "Optimization",
    "Füße",
    "FÜSSE",
    "ΛΟΓΟΣ",
    "λόγος",
    "Crème",
    "CRÈME",
    "Данные",
    "данные",
    "alpha",
    "ALPHA",
    "42",
];

fn arb_word() -> impl Strategy<Value = String> {
    (0usize..WORDS.len()).prop_map(|i| WORDS[i].to_string())
}

/// Raw query shapes a user might type for a pool word: as-is, shouted,
/// decorated with punctuation, or multi-token (normalization keeps the
/// first token).
fn probe_variants(w: &str) -> Vec<String> {
    vec![
        w.to_string(),
        w.to_uppercase(),
        w.to_lowercase(),
        format!("  {w}!"),
        format!("{w}-based engines"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Structural-label arithmetic agrees with parent-pointer walks on
    /// every node pair: same depths, parents, ancestor chains, lca, and
    /// connecting path (order included — `path` feeds fragment joins).
    #[test]
    fn labels_agree_with_tree_walks(
        choices in prop::collection::vec(any::<usize>(), 0..40),
    ) {
        let doc = build_tree(&choices, &[]);
        let labels = doc.labels();
        prop_assert_eq!(labels.len(), doc.len());
        for a in doc.node_ids() {
            prop_assert_eq!(labels.depth(a), doc.depth(a), "depth {:?}", a);
            prop_assert_eq!(labels.parent(a), doc.parent(a), "parent {:?}", a);
            prop_assert_eq!(doc.ancestors(a), walk_ancestors(&doc, a), "ancestors {:?}", a);
            for b in doc.node_ids() {
                prop_assert_eq!(doc.lca(a, b), walk_lca(&doc, a, b), "lca {:?} {:?}", a, b);
                prop_assert_eq!(
                    doc.path(a, b),
                    walk_path(&doc, a, b),
                    "path {:?} {:?}", a, b
                );
                prop_assert_eq!(
                    labels.is_ancestor_or_self(a, b),
                    doc.is_ancestor_or_self(a, b),
                    "ancestor-or-self {:?} {:?}", a, b
                );
                prop_assert_eq!(
                    labels.is_ancestor(a, b),
                    doc.is_ancestor(a, b),
                    "ancestor {:?} {:?}", a, b
                );
            }
        }
    }

    /// Term selection is backend-independent: for any raw query string,
    /// the persistent segment (decoded from its own encoding), the
    /// in-memory index, and the index-free document scan return the
    /// same postings.
    #[test]
    fn segment_selection_matches_document_scan(
        choices in prop::collection::vec(any::<usize>(), 0..24),
        words in prop::collection::vec(arb_word(), 1..8),
        probes in prop::collection::vec(arb_word(), 1..6),
    ) {
        let doc = build_tree(&choices, &words);
        let idx = InvertedIndex::build(&doc);
        let seg = SegmentIndex::from_bytes(&encode_segment(&doc)).expect("segment round-trip");

        // The full vocabulary agrees term-for-term.
        prop_assert_eq!(seg.term_count(), idx.term_count());
        for (term, postings) in idx.terms() {
            prop_assert_eq!(&*seg.lookup(term), postings, "postings for {:?}", term);
            prop_assert_eq!(seg.df(term), postings.len(), "df for {:?}", term);
        }

        // Raw user input — any casing, punctuation, extra tokens — hits
        // the same postings through every backend.
        for raw in probes.iter().flat_map(|w| probe_variants(w)) {
            let scan = InvertedIndex::scan_select(&doc, &raw);
            let mem = idx.lookup_raw(&raw).to_vec();
            let indexed: Vec<NodeId> = match normalize_term(&raw) {
                Some(t) => seg.lookup(&t).to_vec(),
                None => Vec::new(),
            };
            prop_assert_eq!(&scan, &mem, "scan vs memory for {:?}", raw);
            prop_assert_eq!(&scan, &indexed, "scan vs segment for {:?}", raw);
        }

        // Terms no document contains are empty everywhere, not errors.
        let absent = "zzznotaterm";
        prop_assert!(InvertedIndex::scan_select(&doc, absent).is_empty());
        prop_assert!(idx.lookup_raw(absent).is_empty());
        prop_assert!(seg.lookup(absent).is_empty());
    }

    /// Flipping any single byte of an encoded segment makes decoding
    /// fail.
    #[test]
    fn corrupted_segment_never_decodes(
        choices in prop::collection::vec(any::<usize>(), 0..22),
        words in prop::collection::vec(arb_word(), 1..8),
        at in any::<usize>(),
    ) {
        let doc = build_tree(&choices, &words);
        let mut bytes = encode_segment(&doc);
        let i = at % bytes.len();
        bytes[i] ^= 0x5a;
        prop_assert!(
            SegmentIndex::from_bytes(&bytes).is_err(),
            "flipped byte {} of {} went unnoticed", i, bytes.len()
        );
    }
}
