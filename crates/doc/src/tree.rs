//! The rooted ordered tree behind Definition 1 of the paper.
//!
//! An XML document is `D = (N, E)`: a rooted ordered tree with a
//! distinguished root from which every node is reachable, every non-root
//! node having a unique parent, and nodes arranged so that a depth-first
//! pre-order traversal preserves the topology of the document. We take that
//! last clause literally: **a node's id *is* its pre-order rank**. This buys
//! three things the algebra leans on constantly:
//!
//! * `a` is an ancestor-or-self of `b`  ⇔  `a <= b < a + subtree_size(a)`
//!   — an O(1) test with no auxiliary interval labels;
//! * the root of any fragment (connected node set) is simply its minimum id,
//!   because pre-order visits a subtree's root before its descendants;
//! * document order of nodes is plain integer order.

use crate::error::DocError;
use crate::label::StructLabels;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node: its depth-first pre-order rank in the document.
///
/// `NodeId(0)` is always the document root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The numeric rank as a `usize`, for indexing arenas.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

/// One logical component (element) of the document.
///
/// The paper's model does not distinguish tag/attribute names from text
/// content; we keep them separate in storage (so documents round-trip
/// through the serializer) but merge them in `keywords(n)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Element tag name (`section`, `par`, ...).
    pub tag: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// The node's *direct* text content: all text children concatenated,
    /// in order, separated by single spaces where they were separated by
    /// child elements.
    pub text: String,
}

/// An XML document as a rooted ordered tree in pre-order arena layout.
///
/// All per-node attributes are struct-of-arrays so that traversal-heavy
/// algebra code touches only the arrays it needs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
    pub(crate) parent: Vec<Option<NodeId>>,
    pub(crate) children: Vec<Vec<NodeId>>,
    pub(crate) depth: Vec<u32>,
    /// Number of nodes in the subtree rooted here, self included.
    pub(crate) subtree: Vec<u32>,
    /// Every node's root path, built from `parent`; `lca`, `path` and
    /// `ancestors` are answered from it.
    pub(crate) labels: StructLabels,
}

impl Document {
    /// Number of nodes in the document.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True only for the degenerate zero-node document, which the builder
    /// refuses to produce; kept for API completeness.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The root node (pre-order rank 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// All node ids in document (pre-)order — the `nodes(D)` of the paper.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Check a node id and convert it into a validated index.
    #[inline]
    pub fn check(&self, n: NodeId) -> Result<usize, DocError> {
        if n.index() < self.nodes.len() {
            Ok(n.index())
        } else {
            Err(DocError::NodeOutOfRange {
                id: n.0,
                len: self.nodes.len() as u32,
            })
        }
    }

    /// Immutable access to the node payload.
    #[inline]
    pub fn node(&self, n: NodeId) -> &Node {
        &self.nodes[n.index()]
    }

    /// The element tag name of `n`.
    #[inline]
    pub fn tag(&self, n: NodeId) -> &str {
        &self.nodes[n.index()].tag
    }

    /// The direct text content of `n` (not including descendants).
    #[inline]
    pub fn text(&self, n: NodeId) -> &str {
        &self.nodes[n.index()].text
    }

    /// The parent of `n`, or `None` for the root.
    #[inline]
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        self.parent[n.index()]
    }

    /// The children of `n` in document order.
    #[inline]
    pub fn children(&self, n: NodeId) -> &[NodeId] {
        &self.children[n.index()]
    }

    /// Depth of `n`; the root has depth 0.
    #[inline]
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// Size of the subtree rooted at `n`, including `n` itself.
    #[inline]
    pub fn subtree_size(&self, n: NodeId) -> u32 {
        self.subtree[n.index()]
    }

    /// O(1) ancestor-or-self test using the pre-order/subtree-span identity.
    #[inline]
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        a.0 <= b.0 && b.0 < a.0 + self.subtree[a.index()]
    }

    /// Strict ancestor test.
    #[inline]
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.is_ancestor_or_self(a, b)
    }

    /// True iff `n` has no children in the *document* (element leaves).
    #[inline]
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.children[n.index()].is_empty()
    }

    /// The document's prefix labels: every node's root path.
    #[inline]
    pub fn labels(&self) -> &StructLabels {
        &self.labels
    }

    /// Lowest common ancestor of two nodes: the last node the two root
    /// paths share, O(min depth).
    #[inline]
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        self.labels.lca(a, b)
    }

    /// The nodes on the unique simple path between `a` and `b`, inclusive
    /// of both endpoints and their LCA: the `a`-side below the LCA
    /// bottom-up, then the `b`-side below the LCA bottom-up, then the LCA.
    #[inline]
    pub fn path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.labels.path(a, b)
    }

    /// All ancestors of `n` from its parent up to (and including) the root.
    #[inline]
    pub fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        self.labels.ancestors(n)
    }

    /// Maximum depth over all nodes.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().max().unwrap_or(0)
    }

    /// Iterate the subtree of `n` in document order (pre-order ids are
    /// contiguous, so this is a range).
    pub fn subtree_ids(&self, n: NodeId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (n.0..n.0 + self.subtree[n.index()]).map(NodeId)
    }

    /// The one constructor, used by [`crate::DocumentBuilder`] (and so by
    /// the parser and the store decoder); it builds the prefix labels.
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        parent: Vec<Option<NodeId>>,
        children: Vec<Vec<NodeId>>,
        depth: Vec<u32>,
        subtree: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(nodes.len(), parent.len());
        debug_assert_eq!(nodes.len(), children.len());
        debug_assert_eq!(nodes.len(), depth.len());
        debug_assert_eq!(nodes.len(), subtree.len());
        let labels = StructLabels::build(&parent);
        Document {
            nodes,
            parent,
            children,
            depth,
            subtree,
            labels,
        }
    }

    /// Verify internal invariants (pre-order ids, subtree spans, depths,
    /// prefix labels).
    ///
    /// Used by tests and by the corpus generators as a post-condition,
    /// and on documents deserialized from outside the program; O(total
    /// depth).
    pub fn validate(&self) -> Result<(), String> {
        if self.is_empty() {
            return Err("empty document".into());
        }
        if self.parent[0].is_some() {
            return Err("root has a parent".into());
        }
        let mut next = 1u32;
        // Recompute pre-order and subtree sizes iteratively.
        let mut stack = vec![(NodeId(0), 0usize)];
        let mut computed_size = vec![1u32; self.len()];
        let mut order = vec![(NodeId(0), 0u32)];
        while let Some((n, ci)) = stack.pop() {
            if ci < self.children[n.index()].len() {
                stack.push((n, ci + 1));
                let c = self.children[n.index()][ci];
                if c.0 != next {
                    return Err(format!(
                        "child {c} of {n} breaks pre-order (expected n{next})"
                    ));
                }
                if self.parent[c.index()] != Some(n) {
                    return Err(format!(
                        "parent pointer of {c} disagrees with child list of {n}"
                    ));
                }
                if self.depth[c.index()] != self.depth[n.index()] + 1 {
                    return Err(format!("depth of {c} is not parent depth + 1"));
                }
                next += 1;
                order.push((c, self.depth[c.index()]));
                stack.push((c, 0));
            } else if let Some(p) = self.parent[n.index()] {
                computed_size[p.index()] += computed_size[n.index()];
            }
        }
        if next != self.len() as u32 {
            return Err(format!(
                "tree reaches {next} nodes, document stores {}",
                self.len()
            ));
        }
        for (i, (&stored, &comp)) in self.subtree.iter().zip(&computed_size).enumerate() {
            if stored != comp {
                return Err(format!(
                    "subtree size of n{i}: stored {stored}, computed {comp}"
                ));
            }
        }
        // The checks above put every parent before its children, which
        // is all `build` needs.
        if self.labels != StructLabels::build(&self.parent) {
            return Err("prefix labels disagree with the parent array".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DocumentBuilder;

    /// Build the small tree of Figure 3(a) of the paper:
    /// n1 root; children n2, n8, n10; n2 -> n3 -> {n4, n6}; n4 -> n5;
    /// n6 -> n7; n8 -> n9. But re-numbered from 0 in pre-order.
    fn figure3_like() -> Document {
        let mut b = DocumentBuilder::new();
        b.begin("r"); // 0
        {
            b.begin("a"); // 1
            {
                b.begin("b"); // 2
                {
                    b.begin("c"); // 3
                    b.begin("d"); // 4
                    b.end();
                    b.end(); // c
                    b.begin("e"); // 5
                    b.begin("f"); // 6
                    b.end();
                    b.end(); // e
                }
                b.end(); // b
            }
            b.end(); // a
            b.begin("g"); // 7
            b.begin("h"); // 8
            b.end();
            b.end(); // g
            b.begin("i"); // 9
            b.end();
        }
        b.end(); // r
        b.finish().unwrap()
    }

    #[test]
    fn preorder_ids_and_sizes() {
        let d = figure3_like();
        assert_eq!(d.len(), 10);
        d.validate().unwrap();
        assert_eq!(d.subtree_size(NodeId(0)), 10);
        assert_eq!(d.subtree_size(NodeId(1)), 6);
        assert_eq!(d.subtree_size(NodeId(2)), 5);
        assert_eq!(d.subtree_size(NodeId(3)), 2);
        assert_eq!(d.subtree_size(NodeId(4)), 1);
        assert_eq!(d.subtree_size(NodeId(7)), 2);
    }

    #[test]
    fn ancestor_tests() {
        let d = figure3_like();
        assert!(d.is_ancestor(NodeId(0), NodeId(9)));
        assert!(d.is_ancestor(NodeId(2), NodeId(6)));
        assert!(!d.is_ancestor(NodeId(3), NodeId(6)));
        assert!(d.is_ancestor_or_self(NodeId(4), NodeId(4)));
        assert!(!d.is_ancestor(NodeId(4), NodeId(4)));
        assert!(!d.is_ancestor(NodeId(7), NodeId(9)));
    }

    #[test]
    fn lca_and_path() {
        let d = figure3_like();
        assert_eq!(d.lca(NodeId(4), NodeId(6)), NodeId(2));
        assert_eq!(d.lca(NodeId(4), NodeId(8)), NodeId(0));
        assert_eq!(d.lca(NodeId(2), NodeId(4)), NodeId(2));
        assert_eq!(d.lca(NodeId(9), NodeId(9)), NodeId(9));
        let mut p = d.path(NodeId(4), NodeId(6));
        p.sort();
        assert_eq!(
            p,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5), NodeId(6)]
        );
        let mut p = d.path(NodeId(4), NodeId(4));
        p.sort();
        assert_eq!(p, vec![NodeId(4)]);
    }

    #[test]
    fn ancestors_walk() {
        let d = figure3_like();
        assert_eq!(
            d.ancestors(NodeId(4)),
            vec![NodeId(3), NodeId(2), NodeId(1), NodeId(0)]
        );
        assert_eq!(d.ancestors(NodeId(0)), vec![]);
    }

    #[test]
    fn subtree_ids_are_contiguous() {
        let d = figure3_like();
        let ids: Vec<_> = d.subtree_ids(NodeId(2)).collect();
        assert_eq!(
            ids,
            vec![NodeId(2), NodeId(3), NodeId(4), NodeId(5), NodeId(6)]
        );
    }

    #[test]
    fn height_and_leaves() {
        let d = figure3_like();
        assert_eq!(d.height(), 4);
        assert!(d.is_leaf(NodeId(4)));
        assert!(!d.is_leaf(NodeId(3)));
        assert!(d.is_leaf(NodeId(9)));
    }

    #[test]
    fn check_rejects_out_of_range() {
        let d = figure3_like();
        assert!(d.check(NodeId(9)).is_ok());
        assert!(matches!(
            d.check(NodeId(10)),
            Err(DocError::NodeOutOfRange { id: 10, len: 10 })
        ));
    }
}
