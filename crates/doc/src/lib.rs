#![warn(missing_docs)]

//! # xfrag-doc — document substrate
//!
//! This crate implements the *document* side of the algebraic query model of
//! Pradhan (VLDB 2006): an XML document modelled as a rooted **ordered tree**
//! whose nodes are numbered in depth-first pre-order (Definition 1 of the
//! paper), together with everything needed to make that model practical:
//!
//! * [`Document`] — an arena-backed rooted ordered tree with O(1)
//!   ancestor tests, parent/children navigation, depths, subtree spans,
//!   and the prefix labels ([`StructLabels`]) that answer `lca`/`path`;
//! * [`DocumentBuilder`] — programmatic construction in document order;
//! * [`parse`](parse::parse_str) — a from-scratch, non-validating XML parser
//!   (elements, attributes, text, CDATA, comments, processing instructions,
//!   numeric and named entities, DOCTYPE skipping) with line/column errors;
//! * [`serialize`] — the inverse: writing a `Document` (or any
//!   fragment of it) back out as XML;
//! * [`text`] — the keyword tokenizer behind the paper's
//!   `keywords(n)` function ("we do not distinguish between tag/attribute
//!   names and text contents");
//! * [`InvertedIndex`] — term → node postings used to evaluate the
//!   `σ_{keyword=k}` selections that seed every query;
//! * [`atomic`] — crash-safe file writes (temp + fsync + rename
//!   + directory fsync) with injectable write-path faults;
//! * [`manifest`] — checksummed, generation-numbered corpus
//!   manifests with rollback to the last fully-committed generation.

pub mod atomic;
pub mod builder;
pub mod collection;
pub mod error;
pub mod index;
pub mod label;
pub mod manifest;
pub mod parse;
pub mod path;
pub mod segment;
pub mod serialize;
pub mod store;
pub mod text;
pub mod tree;

pub use builder::DocumentBuilder;
pub use collection::{Collection, DocId, IndexHandle};
pub use error::{DocError, ParseError};
pub use index::{InvertedIndex, Postings, PostingsSource};
pub use label::StructLabels;
pub use parse::parse_str;
pub use path::{select_path, PathExpr};
pub use segment::{encode_segment, segment_file_name, SegmentIndex};
pub use tree::{Document, NodeId};
