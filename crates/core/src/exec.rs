//! The execution context every algebra operator runs under.
//!
//! Each operator — pairwise and powerset join, reduce, the fixed points
//! and the §3.3 filtered fixed point — has exactly one implementation: a
//! method on [`ExecCtx`]. The context carries everything those
//! implementations consult besides their operands and the
//! [`EvalStats`](crate::EvalStats) they count into:
//!
//! * the [`Document`] whose prefix labels answer structural questions;
//! * the [`Governor`] every join kernel and round is charged to;
//! * the [`Tracer`] stages record their spans in.
//!
//! The plain paper-level forms ([`crate::pairwise_join`],
//! [`crate::fixed_point`], [`crate::reduce`], …) run the same methods
//! under an unlimited governor and a disabled tracer; both cost only a
//! branch, so the plain forms pay nothing for the context.

use crate::budget::{Breach, Governor};
use crate::trace::Tracer;
use xfrag_doc::Document;

/// Document, budget and tracing for one evaluation.
///
/// Crate-private: public entry points take the governor and tracer
/// themselves and build the context.
#[derive(Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    /// The evaluated document.
    pub(crate) doc: &'a Document,
    /// The budget every operator charges.
    pub(crate) gov: &'a Governor,
    /// Where stages record their spans.
    pub(crate) tracer: &'a Tracer<'a>,
}

impl<'a> ExecCtx<'a> {
    /// A context over `doc` charging `gov` and recording into `tracer`.
    pub(crate) fn new(doc: &'a Document, gov: &'a Governor, tracer: &'a Tracer<'a>) -> Self {
        ExecCtx { doc, gov, tracer }
    }
}

/// Run `f` under an unlimited governor and a disabled tracer: the
/// context of the plain paper-level operator forms.
pub(crate) fn unlimited<T>(doc: &Document, f: impl FnOnce(&ExecCtx<'_>) -> Result<T, Breach>) -> T {
    let gov = Governor::unlimited();
    let tracer = Tracer::disabled();
    match f(&ExecCtx::new(doc, &gov, &tracer)) {
        Ok(out) => out,
        // invariant: an unlimited governor has no limits, no deadline and
        // no cancel token, so no charge can ever breach; callers reject
        // over-large powerset operands before entering.
        Err(_) => unreachable!("unlimited governor breached"),
    }
}
