//! Property-based verification of every algebraic law and theorem the
//! paper states, over randomly generated trees and fragment sets.
//!
//! | Property | Paper source |
//! |---|---|
//! | join idempotent/commutative/associative/absorptive | Definition 4 laws |
//! | `f1 ⊆ f1 ⋈ f2` (Lemma 1) | Appendix |
//! | join result is minimal (no smaller connected superset) | Definition 4 |
//! | pairwise join commutative/associative/monotone/distributive | Definition 5 laws |
//! | `F1 ⋈* F2 = F1⁺ ⋈ F2⁺` | Theorem 2 |
//! | `⋈_k(F) = ⋈_{k+1}(F)` with `k = |⊖(F)|` | Theorem 1 |
//! | `σ_Pa(F1 ⋈ F2) = σ_Pa(σ_Pa F1 ⋈ σ_Pa F2)` | Theorem 3 |
//! | size/height/width filters satisfy Definition 11 | §3.3 |
//! | all four strategies agree | §4 |
//! | budgeted answers ⊆ exact; undegraded ⇒ equal | robustness layer |
//! | sampled RF estimate exact at full sample, one-sided below it | §5 |

use proptest::prelude::*;
use xfrag::core::cost::estimate_rf;
use xfrag::core::{
    evaluate, evaluate_budgeted, fixed_point_naive, fixed_point_reduced, fragment_join,
    fragment_join_all, fragment_join_many, pairwise_join, powerset_join, powerset_via_fixpoint,
    reduce, reduction_factor, select, Budget, EvalStats, ExecPolicy, FilterExpr, FixpointMode,
    Fragment, FragmentSet, Query, Strategy,
};
use xfrag::doc::{Document, DocumentBuilder, InvertedIndex, NodeId};

/// Build a random tree from a parent-choice vector: node `i+1` attaches
/// to node `choices[i] % (i+1)`. The result is re-numbered in pre-order
/// by the builder, which is fine — any rooted ordered tree will do.
fn build_tree(choices: &[usize]) -> Document {
    let n = choices.len() + 1;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &c) in choices.iter().enumerate() {
        children[c % (i + 1)].push(i + 1);
    }
    let mut b = DocumentBuilder::new();
    fn emit(b: &mut DocumentBuilder, children: &[Vec<usize>], v: usize) {
        b.begin(format!("t{v}"));
        for &c in &children[v] {
            emit(b, children, c);
        }
        b.end();
    }
    emit(&mut b, &children, 0);
    b.finish().expect("random tree is well-formed")
}

prop_compose! {
    /// A random document of 1..=20 nodes.
    fn arb_doc()(choices in prop::collection::vec(any::<usize>(), 0..19)) -> Document {
        build_tree(&choices)
    }
}

/// A random connected fragment: the path between two random nodes,
/// possibly widened by joining a third.
fn arb_fragment(doc: &Document, picks: &[usize]) -> Fragment {
    let n = doc.len() as u32;
    let a = NodeId(picks.first().copied().unwrap_or(0) as u32 % n);
    let b = NodeId(picks.get(1).copied().unwrap_or(0) as u32 % n);
    let mut st = EvalStats::new();
    let mut f = fragment_join(doc, &Fragment::node(a), &Fragment::node(b), &mut st);
    if let Some(&c) = picks.get(2) {
        if c % 3 == 0 {
            let c = NodeId(c as u32 % n);
            f = fragment_join(doc, &f, &Fragment::node(c), &mut st);
        }
    }
    f
}

fn arb_set(doc: &Document, seeds: &[Vec<usize>]) -> FragmentSet {
    FragmentSet::from_iter(seeds.iter().map(|s| arb_fragment(doc, s)))
}

/// A random connected sub-fragment of `f`: all members of `f` that lie in
/// the document subtree of a member pivot.
fn connected_subfragment(doc: &Document, f: &Fragment, pick: usize) -> Fragment {
    let pivot = f.nodes()[pick % f.size()];
    let nodes: Vec<NodeId> = f
        .iter()
        .filter(|&n| doc.is_ancestor_or_self(pivot, n))
        .collect();
    Fragment::from_nodes(doc, nodes).expect("subtree restriction is connected")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn join_laws(
        choices in prop::collection::vec(any::<usize>(), 0..19),
        s1 in prop::collection::vec(any::<usize>(), 3),
        s2 in prop::collection::vec(any::<usize>(), 3),
        s3 in prop::collection::vec(any::<usize>(), 3),
    ) {
        let doc = build_tree(&choices);
        let (f1, f2, f3) = (
            arb_fragment(&doc, &s1),
            arb_fragment(&doc, &s2),
            arb_fragment(&doc, &s3),
        );
        let mut st = EvalStats::new();
        // Idempotency
        prop_assert_eq!(fragment_join(&doc, &f1, &f1, &mut st), f1.clone());
        // Commutativity
        prop_assert_eq!(
            fragment_join(&doc, &f1, &f2, &mut st),
            fragment_join(&doc, &f2, &f1, &mut st)
        );
        // Associativity
        let ab = fragment_join(&doc, &f1, &f2, &mut st);
        let bc = fragment_join(&doc, &f2, &f3, &mut st);
        prop_assert_eq!(
            fragment_join(&doc, &ab, &f3, &mut st),
            fragment_join(&doc, &f1, &bc, &mut st)
        );
        // Lemma 1: f1 ⊆ f1 ⋈ f2.
        let j = fragment_join(&doc, &f1, &f2, &mut st);
        prop_assert!(f1.is_subfragment_of(&j));
        prop_assert!(f2.is_subfragment_of(&j));
        // Absorption: f2' ⊆ f1 ⇒ f1 ⋈ f2' = f1.
        let sub = connected_subfragment(&doc, &f1, s2[0]);
        prop_assert_eq!(fragment_join(&doc, &f1, &sub, &mut st), f1.clone());
    }

    /// The single-pass n-ary join (Steiner span of roots) agrees with the
    /// binary fold for arbitrary fragment lists.
    #[test]
    fn join_many_equals_fold(
        choices in prop::collection::vec(any::<usize>(), 0..19),
        seeds in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..6),
    ) {
        let doc = build_tree(&choices);
        let frags: Vec<Fragment> = seeds.iter().map(|s| arb_fragment(&doc, s)).collect();
        let mut st = EvalStats::new();
        let fold = fragment_join_all(&doc, frags.iter(), &mut st);
        let many = fragment_join_many(&doc, frags.iter(), &mut st);
        prop_assert_eq!(fold, many);
    }

    /// Minimality of Definition 4: removing any node of the join result
    /// that is not in f1 ∪ f2 disconnects it or stops containing an input.
    #[test]
    fn join_is_minimal(
        choices in prop::collection::vec(any::<usize>(), 0..19),
        s1 in prop::collection::vec(any::<usize>(), 3),
        s2 in prop::collection::vec(any::<usize>(), 3),
    ) {
        let doc = build_tree(&choices);
        let f1 = arb_fragment(&doc, &s1);
        let f2 = arb_fragment(&doc, &s2);
        let mut st = EvalStats::new();
        let j = fragment_join(&doc, &f1, &f2, &mut st);
        for drop in j.iter() {
            if f1.contains_node(drop) || f2.contains_node(drop) {
                continue;
            }
            let rest: Vec<NodeId> = j.iter().filter(|&n| n != drop).collect();
            // Either the rest is disconnected, or (impossible by
            // construction) it would be a smaller fragment containing both.
            prop_assert!(
                Fragment::from_nodes(&doc, rest).is_err(),
                "join result has a removable extraneous node {drop}"
            );
        }
    }

    #[test]
    fn pairwise_laws(
        choices in prop::collection::vec(any::<usize>(), 0..15),
        a in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..4),
        b in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..4),
        c in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..4),
    ) {
        let doc = build_tree(&choices);
        let (sa, sb, sc) = (arb_set(&doc, &a), arb_set(&doc, &b), arb_set(&doc, &c));
        let mut st = EvalStats::new();
        // Commutativity
        prop_assert_eq!(
            pairwise_join(&doc, &sa, &sb, &mut st),
            pairwise_join(&doc, &sb, &sa, &mut st)
        );
        // Associativity
        let l = pairwise_join(&doc, &pairwise_join(&doc, &sa, &sb, &mut st), &sc, &mut st);
        let r = pairwise_join(&doc, &sa, &pairwise_join(&doc, &sb, &sc, &mut st), &mut st);
        prop_assert_eq!(l, r);
        // Monotonicity: F ⊆ F ⋈ F.
        let sq = pairwise_join(&doc, &sa, &sa, &mut st);
        for f in sa.iter() {
            prop_assert!(sq.contains(f));
        }
        // Distributivity over union.
        let lhs = pairwise_join(&doc, &sa, &sb.union(&sc), &mut st);
        let rhs = pairwise_join(&doc, &sa, &sb, &mut st)
            .union(&pairwise_join(&doc, &sa, &sc, &mut st));
        prop_assert_eq!(lhs, rhs);
    }

    /// Theorem 2 with both fixed-point modes, against the literal
    /// powerset-join oracle.
    #[test]
    fn theorem2_powerset_equals_fixpoint_join(
        choices in prop::collection::vec(any::<usize>(), 0..15),
        a in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..4),
        b in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..4),
    ) {
        let doc = build_tree(&choices);
        let (sa, sb) = (arb_set(&doc, &a), arb_set(&doc, &b));
        let mut st = EvalStats::new();
        let oracle = powerset_join(&doc, &sa, &sb, &mut st).unwrap();
        for mode in [FixpointMode::Naive, FixpointMode::Reduced] {
            let got = powerset_via_fixpoint(&doc, &sa, &sb, mode, &mut st);
            prop_assert_eq!(&got, &oracle);
        }
    }

    /// Theorem 1: k = |⊖(F)| rounds reach the fixed point — and the
    /// reduced computation equals the naive one.
    #[test]
    fn theorem1_reduced_iterations_suffice(
        choices in prop::collection::vec(any::<usize>(), 0..15),
        a in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..6),
    ) {
        let doc = build_tree(&choices);
        let f = arb_set(&doc, &a);
        let mut st = EvalStats::new();
        let naive = fixed_point_naive(&doc, &f, &mut st);
        let reduced = fixed_point_reduced(&doc, &f, &mut st);
        prop_assert_eq!(&naive, &reduced);
        // ⋈_k(F) is already stable: one more round adds nothing.
        let again = pairwise_join(&doc, &reduced, &f, &mut st).union(&reduced);
        prop_assert_eq!(&again, &reduced);
        // And ⊖(F) ⊆ F.
        let r = reduce(&doc, &f, &mut st);
        for frag in r.iter() {
            prop_assert!(f.contains(frag));
        }
    }

    /// Theorem 3 for each anti-monotonic filter shape.
    #[test]
    fn theorem3_selection_commutes_below_join(
        choices in prop::collection::vec(any::<usize>(), 0..15),
        a in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..4),
        b in prop::collection::vec(prop::collection::vec(any::<usize>(), 3), 1..4),
        beta in 1u32..6,
    ) {
        let doc = build_tree(&choices);
        let (sa, sb) = (arb_set(&doc, &a), arb_set(&doc, &b));
        for p in [
            FilterExpr::MaxSize(beta),
            FilterExpr::MaxHeight(beta % 3),
            FilterExpr::MaxWidth(beta),
            FilterExpr::and([FilterExpr::MaxSize(beta + 1), FilterExpr::MaxHeight(2)]),
            FilterExpr::or([FilterExpr::MaxSize(beta), FilterExpr::MaxWidth(1)]),
        ] {
            prop_assert!(p.is_anti_monotonic());
            let mut st = EvalStats::new();
            let lhs = select(&doc, &p, &pairwise_join(&doc, &sa, &sb, &mut st), &mut st);
            let fa = select(&doc, &p, &sa, &mut st);
            let fb = select(&doc, &p, &sb, &mut st);
            let rhs = select(&doc, &p, &pairwise_join(&doc, &fa, &fb, &mut st), &mut st);
            prop_assert_eq!(lhs, rhs, "filter {}", p);
        }
    }

    /// Definition 11 for the anti-monotonic family, on random connected
    /// sub-fragments.
    #[test]
    fn definition11_anti_monotonicity(
        choices in prop::collection::vec(any::<usize>(), 0..19),
        s in prop::collection::vec(any::<usize>(), 3),
        pick in any::<usize>(),
        bound in 0u32..8,
    ) {
        let doc = build_tree(&choices);
        let f = arb_fragment(&doc, &s);
        let sub = connected_subfragment(&doc, &f, pick);
        for p in [
            FilterExpr::MaxSize(bound.max(1)),
            FilterExpr::MaxHeight(bound),
            FilterExpr::MaxWidth(bound),
        ] {
            if p.eval_uncounted(&doc, &f) {
                prop_assert!(
                    p.eval_uncounted(&doc, &sub),
                    "{} passed {} but failed sub-fragment {}",
                    p, f, sub
                );
            }
        }
    }

    /// All four strategies produce the same answer on random documents
    /// and random two-term queries (keywords planted via tag names).
    #[test]
    fn strategies_agree_on_random_queries(
        choices in prop::collection::vec(any::<usize>(), 0..12),
        t1 in any::<usize>(),
        t2 in any::<usize>(),
        beta in 1u32..8,
    ) {
        let doc = build_tree(&choices);
        let n = doc.len();
        // Tag names are t0..t{n-1} and are indexed as keywords.
        let term1 = format!("t{}", t1 % n);
        let term2 = format!("t{}", t2 % n);
        let idx = InvertedIndex::build(&doc);
        let q = Query::new([term1, term2], FilterExpr::MaxSize(beta));
        let oracle = evaluate(&doc, &idx, &q, Strategy::BruteForce).unwrap();
        for s in [Strategy::FixedPointNaive, Strategy::FixedPointReduced, Strategy::PushDown] {
            let r = evaluate(&doc, &idx, &q, s).unwrap();
            prop_assert_eq!(&r.fragments, &oracle.fragments, "strategy {}", s.name());
        }
    }

    /// Budget soundness: under ANY join/fragment budget, every strategy
    /// either completes exactly (no degradation report, answer equal to
    /// the exact one) or degrades to a subset of the exact answer. The
    /// ladder may drop answers; it must never invent them.
    #[test]
    fn budgeted_answers_are_sound_subsets(
        choices in prop::collection::vec(any::<usize>(), 0..12),
        t1 in any::<usize>(),
        t2 in any::<usize>(),
        max_joins in 0u64..60,
        max_fragments in 1u64..40,
    ) {
        let doc = build_tree(&choices);
        let n = doc.len();
        let term1 = format!("t{}", t1 % n);
        let term2 = format!("t{}", t2 % n);
        let idx = InvertedIndex::build(&doc);
        let q = Query::new([term1, term2], FilterExpr::True);
        let exact = evaluate(&doc, &idx, &q, Strategy::FixedPointNaive).unwrap();
        let policy = ExecPolicy::with_budget(
            Budget::unlimited()
                .with_max_joins(max_joins)
                .with_max_fragments(max_fragments),
        );
        for s in [
            Strategy::BruteForce,
            Strategy::FixedPointNaive,
            Strategy::FixedPointReduced,
            Strategy::PushDown,
        ] {
            let r = evaluate_budgeted(&doc, &idx, &q, s, &policy).unwrap();
            for f in r.fragments.iter() {
                prop_assert!(
                    exact.fragments.contains(f),
                    "strategy {}: budgeted answer not in exact set", s.name()
                );
            }
            if !r.degradation.is_degraded() {
                prop_assert_eq!(
                    &r.fragments, &exact.fragments,
                    "strategy {}: undegraded but not exact", s.name()
                );
            } else {
                prop_assert!(!r.degradation.trips.is_empty());
            }
        }
    }
}

/// A keyword-selection-shaped operand: single-node fragments at random
/// nodes, the shape §5's reduction-factor estimate runs on.
fn node_set(doc: &Document, picks: &[usize]) -> FragmentSet {
    FragmentSet::of_nodes(picks.iter().map(|&p| NodeId((p % doc.len()) as u32)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With `sample >= |F|` the strided RF estimate equals the true
    /// reduction factor: stride 1 tests every candidate against every
    /// pair.
    #[test]
    fn full_sample_estimate_is_exact(
        choices in prop::collection::vec(any::<usize>(), 0..22),
        picks in prop::collection::vec(any::<usize>(), 0..12),
    ) {
        let doc = build_tree(&choices);
        let f = node_set(&doc, &picks);
        let mut s = EvalStats::new();
        let est = estimate_rf(&doc, &f, f.len().max(1), &mut s);
        let exact = reduction_factor(&doc, &f, &mut s);
        prop_assert!(
            (est - exact).abs() < 1e-12,
            "full-sample estimate {} != exact {}", est, exact
        );
    }

    /// Below full sample the estimate is one-sided and bounded: a
    /// sampled elimination has a real witness pair, so a positive
    /// estimate implies a positive true RF, and it stays in [0, 1].
    #[test]
    fn sampled_estimate_is_one_sided(
        choices in prop::collection::vec(any::<usize>(), 0..22),
        picks in prop::collection::vec(any::<usize>(), 0..12),
        sample in 1usize..8,
    ) {
        let doc = build_tree(&choices);
        let f = node_set(&doc, &picks);
        let mut s = EvalStats::new();
        let est = estimate_rf(&doc, &f, sample, &mut s);
        prop_assert!((0.0..=1.0).contains(&est), "RF {} out of range", est);
        if est > 0.0 {
            let exact = reduction_factor(&doc, &f, &mut s);
            prop_assert!(exact > 0.0, "sampled RF {} but true RF is zero", est);
        }
    }
}
