#![warn(missing_docs)]

//! # xfrag-baseline — the competing query semantics
//!
//! The paper's central effectiveness claim is comparative: "the smallest
//! subtree containing all the keywords … is not guaranteed to be effective
//! … against general document-centric XML documents" (§1), citing the
//! SLCA line of work (Xu & Papakonstantinou) and XRank's ELCA semantics.
//! To measure that claim (experiment P4 in DESIGN.md) we implement the
//! baselines faithfully:
//!
//! * [`slca()`] — *Smallest* LCAs: nodes that are an LCA of one node per
//!   keyword and have no descendant with the same property;
//! * [`elca()`] — *Exclusive* LCAs (XRank): nodes that are an LCA of a
//!   witness tuple not already consumed by a descendant ELCA;
//! * [`smallest_subtree`] — the single smallest subtree containing all
//!   keywords (the strawman of the paper's introduction);
//! * [`answers_as_fragments`] — adapters turning baseline results into
//!   [`xfrag_core::Fragment`]s so effectiveness comparisons are
//!   apples-to-apples.

pub mod elca;
pub mod slca;
pub mod subtree;

pub use elca::elca;
pub use slca::slca;
pub use subtree::{smallest_subtree, subtree_answers_as_fragments};

use xfrag_core::Fragment;
use xfrag_doc::{Document, NodeId};

/// Turn a list of answer *roots* into whole-subtree fragments (the way
/// SLCA/ELCA systems present results: the subtree rooted at the LCA).
pub fn answers_as_fragments(doc: &Document, roots: &[NodeId]) -> Vec<Fragment> {
    roots.iter().map(|&r| Fragment::subtree(doc, r)).collect()
}
