//! Dewey-style prefix labels for O(label-length) structural arithmetic.
//!
//! Every structural primitive the algebra leans on — ancestor tests,
//! `lca`, `path`, `parent`, `depth` — can be answered from a node's
//! **root path** alone: the sequence of node ids from the document root
//! down to the node itself. "Prefix-based Labeling Annotation for
//! Effective XML Fragmentation" (PAPERS.md) makes the same observation
//! for fragment extraction. Every [`Document`](crate::Document) builds
//! its labels once, when it is constructed, and answers `lca`, `path`
//! and `ancestors` from them; the `.xidx` segment persists them too.
//!
//! Labels are stored flattened (one offset array + one id array), so
//! the whole structure is two `Vec<u32>`s: cache-friendly, trivially
//! serializable into the `.xidx` segment, and O(total depth) in space.
//! Because node ids are pre-order ranks, a root path is strictly
//! increasing — a cheap validation invariant for decoded segments.
//!
//! Output orders are fixed (`ancestors` is bottom-up; `path` lists the
//! `a`-side, then the `b`-side, then the LCA last), so fragment joins
//! are deterministic. The property tests in
//! `crates/doc/tests/proptest_index_label.rs` check every operation
//! against parent-pointer walks.

use crate::tree::NodeId;
use serde::{Deserialize, Serialize};

/// Flattened per-node root-path labels for one document.
///
/// `flat[offsets[n] .. offsets[n + 1]]` is node `n`'s root path: the
/// node ids from the root (inclusive) down to `n` (inclusive). The
/// root's label is `[0]`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StructLabels {
    /// `len + 1` offsets into `flat`; `offsets[n + 1] - offsets[n]` is
    /// `depth(n) + 1`.
    offsets: Vec<u32>,
    /// All labels back to back, in node-id order.
    flat: Vec<u32>,
}

/// Why a decoded label table was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelError {
    /// Offsets are not monotonically increasing or do not cover `flat`.
    BadOffsets,
    /// A label is empty, does not start at the root, does not end with
    /// its own node id, or is not strictly increasing.
    BadLabel(u32),
}

impl std::fmt::Display for LabelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LabelError::BadOffsets => write!(f, "label offsets are inconsistent"),
            LabelError::BadLabel(n) => write!(f, "label of node {n} is malformed"),
        }
    }
}

impl std::error::Error for LabelError {}

impl StructLabels {
    /// Label every node of a pre-order parent array (every parent
    /// before its children): O(total depth).
    pub(crate) fn build(parent: &[Option<NodeId>]) -> Self {
        let mut offsets = Vec::with_capacity(parent.len() + 1);
        let mut flat = Vec::new();
        offsets.push(0);
        // A node's label is its parent's label plus itself; parents
        // precede children in pre-order, so one forward pass suffices.
        for (id, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                let (s, e) = (offsets[p.index()] as usize, offsets[p.index() + 1] as usize);
                flat.extend_from_within(s..e);
            }
            flat.push(id as u32);
            offsets.push(flat.len() as u32);
        }
        StructLabels { offsets, flat }
    }

    /// Reassemble from raw parts (segment decode), validating every
    /// invariant so a corrupted-but-checksum-matching table can never
    /// cause out-of-bounds label arithmetic later.
    pub fn from_parts(offsets: Vec<u32>, flat: Vec<u32>) -> Result<Self, LabelError> {
        if offsets.is_empty() || offsets[0] != 0 || *offsets.last().unwrap() as usize != flat.len()
        {
            return Err(LabelError::BadOffsets);
        }
        let n = offsets.len() - 1;
        for i in 0..n {
            let (s, e) = (offsets[i] as usize, offsets[i + 1] as usize);
            if e <= s || e > flat.len() {
                return Err(LabelError::BadOffsets);
            }
            let label = &flat[s..e];
            // Root path starts at the root, ends at the node itself, and
            // pre-order ids strictly increase along it. Every id must be
            // a valid node id.
            if label[0] != 0 || *label.last().unwrap() != i as u32 {
                return Err(LabelError::BadLabel(i as u32));
            }
            if label.windows(2).any(|w| w[0] >= w[1]) || label.iter().any(|&x| x as usize >= n) {
                return Err(LabelError::BadLabel(i as u32));
            }
        }
        Ok(StructLabels { offsets, flat })
    }

    /// Number of labelled nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for a zero-node table (no document has one).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The root path of `n`: root first, `n` last.
    #[inline]
    pub fn label(&self, n: NodeId) -> &[u32] {
        &self.flat[self.offsets[n.index()] as usize..self.offsets[n.index() + 1] as usize]
    }

    /// Depth of `n` (root = 0): the label length minus one, O(1).
    #[inline]
    pub fn depth(&self, n: NodeId) -> u32 {
        (self.offsets[n.index() + 1] - self.offsets[n.index()]) - 1
    }

    /// Parent of `n`, O(1): the penultimate entry of its label.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let l = self.label(n);
        if l.len() < 2 {
            None
        } else {
            Some(NodeId(l[l.len() - 2]))
        }
    }

    /// O(1) ancestor-or-self test: `a` is an ancestor-or-self of `b` iff
    /// `b`'s root path contains `a` at position `depth(a)`.
    #[inline]
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        let la = self.depth(a) as usize;
        let lb = self.label(b);
        la < lb.len() && lb[la] == a.0
    }

    /// Strict ancestor test.
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.is_ancestor_or_self(a, b)
    }

    /// Lowest common ancestor: the last position where the two root
    /// paths agree. O(min depth) with no tree access.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (la, lb) = (self.label(a), self.label(b));
        let mut i = 0;
        let max = la.len().min(lb.len());
        while i < max && la[i] == lb[i] {
            i += 1;
        }
        // invariant: i >= 1 because both paths start at the root.
        NodeId(la[i - 1])
    }

    /// All proper ancestors of `n`, parent first, root last.
    pub fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        self.label(n)
            .iter()
            .rev()
            .skip(1)
            .map(|&x| NodeId(x))
            .collect()
    }

    /// The nodes on the unique simple path between `a` and `b`: the
    /// `a`-side below the LCA bottom-up, then the `b`-side below the LCA
    /// bottom-up, then the LCA itself.
    pub fn path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        let (la, lb) = (self.label(a), self.label(b));
        let mut i = 0;
        let max = la.len().min(lb.len());
        while i < max && la[i] == lb[i] {
            i += 1;
        }
        let mut out = Vec::with_capacity((la.len() - i) + (lb.len() - i) + 1);
        out.extend(la[i..].iter().rev().map(|&x| NodeId(x)));
        out.extend(lb[i..].iter().rev().map(|&x| NodeId(x)));
        out.push(NodeId(la[i - 1]));
        out
    }

    /// Raw flattened parts, for segment encoding.
    pub fn parts(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.flat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;
    use crate::tree::Document;

    fn figure3_like() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("r"); // 0
        b.begin("a"); // 1
        b.begin("b"); // 2
        b.begin("c"); // 3
        b.begin("d"); // 4
        b.end();
        b.end();
        b.begin("e"); // 5
        b.begin("f"); // 6
        b.end();
        b.end();
        b.end(); // b
        b.end(); // a
        b.begin("g"); // 7
        b.begin("h"); // 8
        b.end();
        b.end();
        b.begin("i"); // 9
        b.end();
        b.end(); // r
        b.finish().unwrap()
    }

    #[test]
    fn labels_are_root_paths() {
        let d = figure3_like();
        let l = d.labels();
        assert_eq!(l.len(), 10);
        assert_eq!(l.label(NodeId(0)), &[0]);
        assert_eq!(l.label(NodeId(4)), &[0, 1, 2, 3, 4]);
        assert_eq!(l.label(NodeId(8)), &[0, 7, 8]);
        assert_eq!(l.label(NodeId(9)), &[0, 9]);
    }

    /// Depth, parent and the ancestor tests agree with the document's
    /// own depth array, parent array and subtree spans; `lca` and `path`
    /// (which the document answers from these labels) match hand-worked
    /// values, path order included.
    #[test]
    fn arithmetic_matches_tree_walks() {
        let d = figure3_like();
        let l = d.labels();
        for a in d.node_ids() {
            assert_eq!(l.depth(a), d.depth(a), "depth {a}");
            assert_eq!(l.parent(a), d.parent(a), "parent {a}");
            for b in d.node_ids() {
                assert_eq!(
                    l.is_ancestor_or_self(a, b),
                    d.is_ancestor_or_self(a, b),
                    "anc-or-self {a} {b}"
                );
            }
        }
        let ids = |v: &[u32]| v.iter().map(|&x| NodeId(x)).collect::<Vec<_>>();
        assert_eq!(l.ancestors(NodeId(6)), ids(&[5, 2, 1, 0]));
        assert_eq!(l.lca(NodeId(4), NodeId(6)), NodeId(2));
        assert_eq!(l.lca(NodeId(4), NodeId(8)), NodeId(0));
        assert_eq!(l.lca(NodeId(2), NodeId(4)), NodeId(2));
        assert_eq!(l.path(NodeId(4), NodeId(6)), ids(&[4, 3, 6, 5, 2]));
        assert_eq!(l.path(NodeId(8), NodeId(3)), ids(&[8, 7, 3, 2, 1, 0]));
        assert_eq!(l.path(NodeId(1), NodeId(4)), ids(&[4, 3, 2, 1]));
    }

    #[test]
    fn from_parts_roundtrip_and_validation() {
        let d = figure3_like();
        let l = d.labels();
        let (o, f) = l.parts();
        assert_eq!(
            &StructLabels::from_parts(o.to_vec(), f.to_vec()).unwrap(),
            l
        );
        // Tampered offsets.
        assert_eq!(
            StructLabels::from_parts(vec![1, 2], vec![0]),
            Err(LabelError::BadOffsets)
        );
        assert_eq!(
            StructLabels::from_parts(vec![0, 2], vec![0]),
            Err(LabelError::BadOffsets)
        );
        // A label that does not start at the root.
        assert_eq!(
            StructLabels::from_parts(vec![0, 1, 3], vec![0, 1, 1]),
            Err(LabelError::BadLabel(1))
        );
        // Non-increasing root path.
        assert_eq!(
            StructLabels::from_parts(vec![0, 1, 4], vec![0, 0, 2, 1]),
            Err(LabelError::BadLabel(1))
        );
        // Id out of range.
        assert_eq!(
            StructLabels::from_parts(vec![0, 1, 3], vec![0, 0, 9]),
            Err(LabelError::BadLabel(1))
        );
    }

    #[test]
    fn single_node_document() {
        let mut b = DocumentBuilder::new();
        b.begin("x");
        b.end();
        let d = b.finish().unwrap();
        let l = d.labels();
        assert_eq!(l.len(), 1);
        assert_eq!(l.parent(NodeId(0)), None);
        assert_eq!(l.depth(NodeId(0)), 0);
        assert_eq!(l.lca(NodeId(0), NodeId(0)), NodeId(0));
        assert_eq!(l.path(NodeId(0), NodeId(0)), vec![NodeId(0)]);
        assert_eq!(l.ancestors(NodeId(0)), Vec::<NodeId>::new());
    }
}
