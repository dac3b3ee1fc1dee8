//! # xfrag — algebraic retrieval of XML fragments
//!
//! A production-quality Rust implementation of Pradhan, *"An Algebraic
//! Query Model for Effective and Efficient Retrieval of XML Fragments"*
//! (VLDB 2006). This facade crate re-exports the workspace:
//!
//! * [`doc`] — document trees, XML parsing, keyword indexing;
//! * [`core`] — the fragment algebra (joins, fixed points, filters,
//!   strategies, evaluation plans);
//! * [`rel`] — the relational-engine implementation of the same algebra;
//! * [`baseline`] — SLCA / ELCA / smallest-subtree baselines;
//! * [`corpus`] — the paper's running examples and synthetic generators.
//!
//! ## Quickstart
//!
//! ```
//! use xfrag::prelude::*;
//!
//! let doc = parse_str(r#"
//!   <article>
//!     <sec><title>Query optimization</title>
//!       <p>XQuery engines rewrite algebraic plans.</p>
//!       <p>Cost-based optimization of XQuery joins.</p>
//!     </sec>
//!   </article>"#).unwrap();
//! let index = InvertedIndex::build(&doc);
//! let query = Query::parse("xquery optimization", FilterExpr::MaxSize(3));
//! let result = evaluate(&doc, &index, &query, Strategy::PushDown).unwrap();
//! assert!(!result.fragments.is_empty());
//! ```

pub use xfrag_baseline as baseline;
pub use xfrag_core as core;
pub use xfrag_corpus as corpus;
pub use xfrag_doc as doc;
pub use xfrag_rel as rel;

/// The common imports for applications.
pub mod prelude {
    pub use xfrag_core::{
        evaluate, fragment_join, pairwise_join, powerset_join, select, EvalStats, FilterExpr,
        FixpointMode, Fragment, FragmentSet, LogicalPlan, Query, QueryResult, Strategy,
    };
    pub use xfrag_doc::{parse_str, Document, DocumentBuilder, InvertedIndex, NodeId};
}
