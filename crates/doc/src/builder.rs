//! Programmatic construction of [`Document`]s in document order.
//!
//! The builder is the only way to create a `Document` (the parser uses it
//! too), which is how the pre-order-id invariant of [`crate::tree`] is
//! enforced by construction: `begin` allocates the next pre-order rank,
//! `end` pops back to the parent, and subtree sizes are accumulated on pop.

use crate::error::DocError;
use crate::tree::{Document, Node, NodeId};

/// The deepest element nesting a document may have, the root counting as
/// level 1: above the 3,000-level chain `tests/scale.rs` evaluates, and
/// far above what hand-written XML nests. Every node stores its root
/// path as a [`StructLabels`](crate::StructLabels) label, so a chain of
/// `n` elements would cost O(n²) label space; [`DocumentBuilder::finish`]
/// rejects deeper input before any label is built.
pub const MAX_DEPTH: u32 = 4096;

/// Label entries, Σ(depth + 1) over all nodes, that any document may
/// need: 2^24, above the 8.4M of a [`MAX_DEPTH`]-level chain.
const MIN_LABEL_ENTRIES: u64 = 1 << 24;

/// Label entries allowed per node beyond [`MIN_LABEL_ENTRIES`], so label
/// space stays within a constant factor of the input: 70,000 leaves
/// under a 4,000-level chain, a 308 KB file, would otherwise need 288M
/// entries (over 1 GiB) and abort the process on allocation failure.
const LABEL_ENTRIES_PER_NODE: u64 = 64;

/// Streaming builder for [`Document`].
///
/// ```
/// use xfrag_doc::DocumentBuilder;
/// let mut b = DocumentBuilder::new();
/// b.begin("article");
/// b.begin("title");
/// b.text("XQuery optimization");
/// b.end();
/// b.end();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.len(), 2);
/// assert_eq!(doc.text(xfrag_doc::NodeId(1)), "XQuery optimization");
/// ```
#[derive(Debug, Default)]
pub struct DocumentBuilder {
    nodes: Vec<Node>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    depth: Vec<u32>,
    subtree: Vec<u32>,
    /// Stack of currently-open elements.
    open: Vec<NodeId>,
    /// Whether the root element has already been closed.
    root_closed: bool,
    /// First structural error encountered (reported by `finish`).
    err: Option<DocError>,
}

impl DocumentBuilder {
    /// A fresh builder with no nodes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a new element with the given tag; it becomes the context for
    /// subsequent `begin`/`text`/`attr` calls until the matching [`end`].
    ///
    /// Returns the id the new node will have in the finished document.
    ///
    /// [`end`]: DocumentBuilder::end
    pub fn begin(&mut self, tag: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        if self.open.is_empty() && (self.root_closed || id.0 > 0) {
            // A second root element (or content after close).
            self.err.get_or_insert(DocError::ContentOutsideRoot);
        }
        let parent = self.open.last().copied();
        let depth = parent.map_or(0, |p| self.depth[p.index()] + 1);
        self.nodes.push(Node {
            tag: tag.into(),
            attrs: Vec::new(),
            text: String::new(),
        });
        self.parent.push(parent);
        self.children.push(Vec::new());
        self.depth.push(depth);
        self.subtree.push(1);
        if let Some(p) = parent {
            self.children[p.index()].push(id);
        }
        self.open.push(id);
        id
    }

    /// Append an attribute to the currently open element.
    pub fn attr(&mut self, name: impl Into<String>, value: impl Into<String>) -> &mut Self {
        match self.open.last() {
            Some(&n) => self.nodes[n.index()]
                .attrs
                .push((name.into(), value.into())),
            None => {
                self.err.get_or_insert(DocError::ContentOutsideRoot);
            }
        }
        self
    }

    /// Append text content to the currently open element. Consecutive text
    /// chunks are joined with a single space, mirroring how the parser
    /// concatenates text interleaved with child elements.
    pub fn text(&mut self, chunk: impl AsRef<str>) -> &mut Self {
        let chunk = chunk.as_ref();
        if chunk.is_empty() {
            return self;
        }
        match self.open.last() {
            Some(&n) => {
                let t = &mut self.nodes[n.index()].text;
                if !t.is_empty() {
                    t.push(' ');
                }
                t.push_str(chunk);
            }
            None => {
                self.err.get_or_insert(DocError::ContentOutsideRoot);
            }
        }
        self
    }

    /// Close the currently open element.
    pub fn end(&mut self) -> &mut Self {
        match self.open.pop() {
            Some(n) => {
                if let Some(p) = self.parent[n.index()] {
                    self.subtree[p.index()] += self.subtree[n.index()];
                } else {
                    self.root_closed = true;
                }
            }
            None => {
                self.err.get_or_insert(DocError::CloseWithoutOpen);
            }
        }
        self
    }

    /// Convenience: a complete leaf element with optional text.
    pub fn leaf(&mut self, tag: impl Into<String>, text: impl AsRef<str>) -> NodeId {
        let id = self.begin(tag);
        self.text(text);
        self.end();
        id
    }

    /// Finish building, validating that the structure is complete.
    pub fn finish(mut self) -> Result<Document, DocError> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        if !self.open.is_empty() {
            return Err(DocError::UnclosedElements(self.open.len()));
        }
        if self.nodes.is_empty() {
            return Err(DocError::EmptyDocument);
        }
        check_label_space(&self.depth)?;
        let doc = Document::from_parts(
            self.nodes,
            self.parent,
            self.children,
            self.depth,
            self.subtree,
        );
        debug_assert!(doc.validate().is_ok(), "builder produced invalid tree");
        Ok(doc)
    }
}

/// Reject node depths whose root-path labels would be too deep, too
/// large for the input's size, or would overflow the labels' `u32`
/// offsets, before anything is allocated.
fn check_label_space(depth: &[u32]) -> Result<(), DocError> {
    let levels = depth.iter().max().map_or(0, |&d| d + 1);
    if levels > MAX_DEPTH {
        return Err(DocError::TooDeep(levels));
    }
    let entries: u64 = depth.iter().map(|&d| u64::from(d) + 1).sum();
    let limit = (LABEL_ENTRIES_PER_NODE * depth.len() as u64)
        .max(MIN_LABEL_ENTRIES)
        .min(u64::from(u32::MAX));
    if entries > limit {
        return Err(DocError::LabelsTooLarge { entries, limit });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_single_node() {
        let mut b = DocumentBuilder::new();
        b.begin("root");
        b.end();
        let d = b.finish().unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.tag(NodeId(0)), "root");
        assert_eq!(d.height(), 0);
    }

    #[test]
    fn rejects_empty() {
        let b = DocumentBuilder::new();
        assert_eq!(b.finish().unwrap_err(), DocError::EmptyDocument);
    }

    #[test]
    fn rejects_unclosed() {
        let mut b = DocumentBuilder::new();
        b.begin("a");
        b.begin("b");
        b.end();
        assert_eq!(b.finish().unwrap_err(), DocError::UnclosedElements(1));
    }

    #[test]
    fn rejects_extra_close() {
        let mut b = DocumentBuilder::new();
        b.begin("a");
        b.end();
        b.end();
        assert_eq!(b.finish().unwrap_err(), DocError::CloseWithoutOpen);
    }

    #[test]
    fn rejects_second_root() {
        let mut b = DocumentBuilder::new();
        b.begin("a");
        b.end();
        b.begin("b");
        b.end();
        assert_eq!(b.finish().unwrap_err(), DocError::ContentOutsideRoot);
    }

    #[test]
    fn rejects_orphan_text() {
        let mut b = DocumentBuilder::new();
        b.text("stray");
        b.begin("a");
        b.end();
        assert_eq!(b.finish().unwrap_err(), DocError::ContentOutsideRoot);
    }

    #[test]
    fn text_chunks_join_with_space() {
        let mut b = DocumentBuilder::new();
        b.begin("p");
        b.text("hello");
        b.text("world");
        b.text("");
        b.end();
        let d = b.finish().unwrap();
        assert_eq!(d.text(NodeId(0)), "hello world");
    }

    #[test]
    fn attrs_recorded_in_order() {
        let mut b = DocumentBuilder::new();
        b.begin("sec");
        b.attr("id", "s1").attr("class", "intro");
        b.end();
        let d = b.finish().unwrap();
        assert_eq!(
            d.node(NodeId(0)).attrs,
            vec![("id".into(), "s1".into()), ("class".into(), "intro".into())]
        );
    }

    #[test]
    fn leaf_helper() {
        let mut b = DocumentBuilder::new();
        b.begin("doc");
        let t = b.leaf("title", "Hello");
        b.end();
        let d = b.finish().unwrap();
        assert_eq!(t, NodeId(1));
        assert_eq!(d.text(t), "Hello");
        assert!(d.is_leaf(t));
    }

    #[test]
    fn deep_chain() {
        let mut b = DocumentBuilder::new();
        for i in 0..1000 {
            b.begin(format!("d{i}"));
        }
        for _ in 0..1000 {
            b.end();
        }
        let d = b.finish().unwrap();
        assert_eq!(d.len(), 1000);
        assert_eq!(d.height(), 999);
        assert_eq!(d.lca(NodeId(999), NodeId(500)), NodeId(500));
        d.validate().unwrap();
    }

    #[test]
    fn label_space_past_u32_is_rejected() {
        // 1.1M nodes at the deepest allowed level: Σ(depth + 1) exceeds
        // u32::MAX though no node is too deep.
        let depth = vec![MAX_DEPTH - 1; 1_100_000];
        assert_eq!(
            check_label_space(&depth),
            Err(DocError::LabelsTooLarge {
                entries: 1_100_000 * u64::from(MAX_DEPTH),
                limit: 1_100_000 * LABEL_ENTRIES_PER_NODE,
            })
        );
        // Wide under deep: 70,000 leaves below a 4,000-level chain need
        // 288M entries, far past both 64 per node and 2^24, though no
        // node is too deep.
        let chain = 4_000u32;
        let mut depth: Vec<u32> = (0..chain).collect();
        depth.extend(vec![chain; 70_000]);
        let entries = u64::from(chain) * u64::from(chain + 1) / 2 + 70_000 * u64::from(chain + 1);
        assert_eq!(
            check_label_space(&depth),
            Err(DocError::LabelsTooLarge {
                entries,
                limit: MIN_LABEL_ENTRIES,
            })
        );
        // Chains up to the depth limit stay admitted, as do wide shallow
        // documents of any size.
        for levels in [3_000, MAX_DEPTH] {
            let chain: Vec<u32> = (0..levels).collect();
            assert_eq!(check_label_space(&chain), Ok(()), "{levels}");
        }
        let mut flat = vec![1u32; 1_000_000];
        flat[0] = 0;
        assert_eq!(check_label_space(&flat), Ok(()));
    }
}
