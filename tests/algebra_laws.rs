//! Algebraic-law conformance suite: the paper's definitions and theorems
//! checked **exhaustively** on every rooted ordered tree of up to four
//! nodes, plus deterministic witnesses for the laws that *fail* — the
//! pairwise join's non-idempotence and the equal-depth filter's refusal
//! to commute below a join.
//!
//! This complements `tests/properties.rs`, which checks the same laws on
//! *random* trees: random sampling gives breadth, exhaustive enumeration
//! gives certainty on the small cases where the theorems' edge conditions
//! (empty sets, singletons, root-only trees) actually live.
//!
//! | Check | Paper source |
//! |---|---|
//! | join idempotent/commutative/associative/absorptive, exhaustive | Definition 4 |
//! | pairwise join commutative/monotone/∪-distributive, exhaustive | Definition 5 |
//! | pairwise join is **not** idempotent: concrete witness | Definition 5 |
//! | `⋈_k(F) = ⋈_{k+1}(F)` with `k = \|⊖(F)\|`, exhaustive | Theorem 1 |
//! | `F1 ⋈* F2 = F1⁺ ⋈ F2⁺`, exhaustive over all operand pairs | Theorem 2 |
//! | push-down ≡ post-filter for size/height/width, exhaustive | Theorem 3 |
//! | equal-depth push-down changes the answer: concrete witness | §3.4, Figure 7 |
//! | the default work bound trips on no query over these cells | robustness layer |

use xfrag::core::{
    evaluate, evaluate_budgeted, fixed_point_naive, fixed_point_reduced, fragment_join,
    pairwise_join, powerset_join, powerset_via_fixpoint, reduce, select, Budget, EvalStats,
    ExecPolicy, FilterExpr, FixpointMode, Fragment, FragmentSet, Query, Strategy,
};
use xfrag::doc::{Document, DocumentBuilder, InvertedIndex, NodeId};

/// Build a tree from a parent-choice vector: node `i+1` attaches to node
/// `choices[i]` (which must be `<= i`). Tags are `t0..t{n-1}`.
fn build_tree(choices: &[usize]) -> Document {
    let n = choices.len() + 1;
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, &c) in choices.iter().enumerate() {
        children[c].push(i + 1);
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
    b.finish().expect("enumerated tree is well-formed")
}

/// Every rooted tree with `n` nodes, by enumerating all parent-choice
/// vectors (`choices[i] ∈ 0..=i`). Counts: 1, 1, 2, 6 for n = 1..=4.
fn all_trees(n: usize) -> Vec<Document> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; n.saturating_sub(1)];
    fn rec(n: usize, i: usize, cur: &mut Vec<usize>, out: &mut Vec<Document>) {
        if i + 1 == n {
            out.push(build_tree(cur));
            return;
        }
        for c in 0..=i {
            cur[i] = c;
            rec(n, i + 1, cur, out);
        }
    }
    if n <= 1 {
        out.push(build_tree(&[]));
    } else {
        rec(n, 0, &mut cur, &mut out);
    }
    out
}

/// All non-empty subsets of the document's nodes, as sets of single-node
/// fragments — exactly the operand shape keyword selection produces.
fn singleton_sets(doc: &Document) -> Vec<FragmentSet> {
    let n = doc.len();
    (1u32..(1 << n))
        .map(|mask| {
            FragmentSet::from_iter(
                (0..n)
                    .filter(|i| mask & (1 << i) != 0)
                    .map(|i| Fragment::node(NodeId(i as u32))),
            )
        })
        .collect()
}

/// Definition 4 laws, exhaustively over every node triple of every tree
/// with at most four nodes.
#[test]
fn def4_join_laws_exhaustive() {
    let mut st = EvalStats::new();
    for n in 1..=4 {
        for doc in all_trees(n) {
            let frags: Vec<Fragment> = (0..n as u32).map(|v| Fragment::node(NodeId(v))).collect();
            for a in &frags {
                for b in &frags {
                    // Commutativity.
                    let ab = fragment_join(&doc, a, b, &mut st);
                    assert_eq!(ab, fragment_join(&doc, b, a, &mut st));
                    // Idempotence on the (possibly multi-node) join result.
                    assert_eq!(fragment_join(&doc, &ab, &ab, &mut st), ab);
                    // Absorption: every single node of the result is absorbed.
                    for v in ab.iter() {
                        assert_eq!(fragment_join(&doc, &ab, &Fragment::node(v), &mut st), ab);
                    }
                    for c in &frags {
                        // Associativity.
                        let bc = fragment_join(&doc, b, c, &mut st);
                        assert_eq!(
                            fragment_join(&doc, &ab, c, &mut st),
                            fragment_join(&doc, a, &bc, &mut st),
                        );
                    }
                }
            }
        }
    }
}

/// Definition 5 laws, exhaustively over every pair (and triple, for
/// distributivity) of singleton-fragment operand sets on trees of up to
/// three nodes.
#[test]
fn def5_pairwise_laws_exhaustive() {
    let mut st = EvalStats::new();
    for n in 1..=3 {
        for doc in all_trees(n) {
            let sets = singleton_sets(&doc);
            for f1 in &sets {
                for f2 in &sets {
                    // Commutativity.
                    let j12 = pairwise_join(&doc, f1, f2, &mut st);
                    assert_eq!(j12, pairwise_join(&doc, f2, f1, &mut st));
                    // Monotonicity: F ⊆ F ⋈ F (via the diagonal f ⋈ f = f).
                    let sq = pairwise_join(&doc, f1, f1, &mut st);
                    for f in f1.iter() {
                        assert!(sq.contains(f));
                    }
                    // ∪-distributivity: F1 ⋈ (F2 ∪ F3) = (F1 ⋈ F2) ∪ (F1 ⋈ F3).
                    for f3 in &sets {
                        let lhs = pairwise_join(&doc, f1, &f2.union(f3), &mut st);
                        let rhs = pairwise_join(&doc, f1, f2, &mut st)
                            .union(&pairwise_join(&doc, f1, f3, &mut st));
                        assert_eq!(lhs, rhs);
                    }
                }
            }
        }
    }
}

/// Definition 5 is deliberately **not** idempotent — that is the whole
/// point of iterating it to a fixed point. Witness: siblings n1, n2 under
/// root n0. `F ⋈ F` gains the spanning fragment `⟨n0,n1,n2⟩`, so
/// `F ⋈ F ≠ F`.
#[test]
fn def5_pairwise_join_not_idempotent_witness() {
    let doc = build_tree(&[0, 0]); // n0 → {n1, n2}
    let n1 = Fragment::node(NodeId(1));
    let n2 = Fragment::node(NodeId(2));
    let f = FragmentSet::from_iter([n1.clone(), n2.clone()]);
    let mut st = EvalStats::new();
    let joined = pairwise_join(&doc, &f, &f, &mut st);
    assert_ne!(joined, f, "pairwise join must not be idempotent here");
    let span = fragment_join(&doc, &n1, &n2, &mut st);
    assert_eq!(span.size(), 3, "join of the siblings spans the root");
    assert_eq!(joined, FragmentSet::from_iter([n1, n2, span]));
}

/// Theorem 1, exhaustively: for every singleton-fragment operand set `F`
/// on every tree with at most four nodes, `k = |⊖(F)|` rounds of
/// `H ← (H ⋈ F) ∪ H` reach the fixed point — one more round adds nothing
/// and the result equals `F⁺` from both implementations.
#[test]
fn theorem1_iteration_bound_exhaustive() {
    let mut st = EvalStats::new();
    for n in 1..=4 {
        for doc in all_trees(n) {
            for f in singleton_sets(&doc) {
                let k = reduce(&doc, &f, &mut st).len();
                assert!(k >= 1, "⊖(F) of a non-empty F is non-empty");
                // ⋈_k(F): k − 1 pairwise-join applications starting at F.
                let mut h = f.clone();
                for _ in 1..k {
                    h = pairwise_join(&doc, &h, &f, &mut st).union(&h);
                }
                // ⋈_{k+1}(F) = ⋈_k(F): the claimed bound is tight enough.
                let once_more = pairwise_join(&doc, &h, &f, &mut st).union(&h);
                assert_eq!(once_more, h, "k = |⊖(F)| rounds did not stabilize");
                // And it is the fixed point both implementations compute.
                assert_eq!(h, fixed_point_naive(&doc, &f, &mut st));
                assert_eq!(h, fixed_point_reduced(&doc, &f, &mut st));
            }
        }
    }
}

/// Theorem 2, exhaustively: `F1 ⋈* F2 = F1⁺ ⋈ F2⁺` for **every** pair of
/// non-empty singleton-fragment operand sets on every tree with at most
/// four nodes, with the literal powerset enumeration as the oracle.
#[test]
fn theorem2_exhaustive_small_trees() {
    let mut st = EvalStats::new();
    for n in 1..=4 {
        for doc in all_trees(n) {
            let sets = singleton_sets(&doc);
            for f1 in &sets {
                for f2 in &sets {
                    let oracle = powerset_join(&doc, f1, f2, &mut st)
                        .expect("operands are within the oracle limit");
                    // The rewrite, composed by hand from its two halves.
                    let p1 = fixed_point_naive(&doc, f1, &mut st);
                    let p2 = fixed_point_naive(&doc, f2, &mut st);
                    assert_eq!(pairwise_join(&doc, &p1, &p2, &mut st), oracle);
                    // And through both packaged fixed-point modes.
                    for mode in [FixpointMode::Naive, FixpointMode::Reduced] {
                        assert_eq!(powerset_via_fixpoint(&doc, f1, f2, mode, &mut st), oracle);
                    }
                }
            }
        }
    }
}

/// Theorem 3, exhaustively for the three anti-monotonic filter shapes the
/// issue calls out: pushing the selection below the pairwise join leaves
/// the answer unchanged, for every operand pair of at most two fragments
/// on every tree with at most four nodes.
#[test]
fn theorem3_pushdown_equals_postfilter_exhaustive() {
    let mut st = EvalStats::new();
    for n in 1..=4 {
        for doc in all_trees(n) {
            let sets: Vec<FragmentSet> = singleton_sets(&doc)
                .into_iter()
                .filter(|s| s.len() <= 2)
                .collect();
            let filters = [
                FilterExpr::MaxSize(2),
                FilterExpr::MaxHeight(1),
                FilterExpr::MaxWidth(1),
                FilterExpr::MaxSize(3),
                FilterExpr::MaxWidth(2),
            ];
            for p in &filters {
                assert!(p.is_anti_monotonic());
                for f1 in &sets {
                    for f2 in &sets {
                        let lhs = select(&doc, p, &pairwise_join(&doc, f1, f2, &mut st), &mut st);
                        let s1 = select(&doc, p, f1, &mut st);
                        let s2 = select(&doc, p, f2, &mut st);
                        let rhs = select(&doc, p, &pairwise_join(&doc, &s1, &s2, &mut st), &mut st);
                        assert_eq!(lhs, rhs, "filter {p} on a {n}-node tree");
                    }
                }
            }
        }
    }
}

/// The §3.4 equal-depth filter is **not** anti-monotonic, and pushing it
/// below the join is unsound. Witness: root `r` with children `a`, `b`.
/// The operands are the single keyword nodes, neither of which contains
/// both terms, so the pushed selection annihilates the operands — yet the
/// post-filtered join keeps `⟨r,a,b⟩`, where both terms sit at depth 1.
#[test]
fn equal_depth_pushdown_counterexample() {
    let mut b = DocumentBuilder::new();
    b.begin("r");
    b.begin("a");
    b.end();
    b.begin("b");
    b.end();
    b.end();
    let doc = b.finish().unwrap();
    let p = FilterExpr::EqualDepth("a".into(), "b".into());
    assert!(!p.is_anti_monotonic());

    let f1 = FragmentSet::from_iter([Fragment::node(NodeId(1))]); // ⟨a⟩
    let f2 = FragmentSet::from_iter([Fragment::node(NodeId(2))]); // ⟨b⟩
    let mut st = EvalStats::new();

    let post = select(&doc, &p, &pairwise_join(&doc, &f1, &f2, &mut st), &mut st);
    assert_eq!(post.len(), 1, "post-filtering keeps the spanning fragment");

    let pushed_operand1 = select(&doc, &p, &f1, &mut st);
    let pushed_operand2 = select(&doc, &p, &f2, &mut st);
    assert!(pushed_operand1.is_empty() && pushed_operand2.is_empty());
    let pushed = select(
        &doc,
        &p,
        &pairwise_join(&doc, &pushed_operand1, &pushed_operand2, &mut st),
        &mut st,
    );
    assert_ne!(
        post, pushed,
        "blind push-down of equal-depth changes the answer"
    );

    // The optimizer must therefore refuse to push it: the push-down
    // strategy still agrees with brute force on the full query.
    let idx = InvertedIndex::build(&doc);
    let q = Query::new(["a".to_string(), "b".to_string()], p);
    let oracle = evaluate(&doc, &idx, &q, Strategy::BruteForce).unwrap();
    assert!(!oracle.fragments.is_empty());
    for s in [
        Strategy::FixedPointNaive,
        Strategy::FixedPointReduced,
        Strategy::PushDown,
    ] {
        let r = evaluate(&doc, &idx, &q, s).unwrap();
        assert_eq!(r.fragments, oracle.fragments, "strategy {}", s.name());
    }
}

/// A copy of `tree` whose nodes in `f1` hold "ka" and in `f2` "kb".
fn with_terms(tree: &Document, f1: &FragmentSet, f2: &FragmentSet) -> Document {
    fn emit(b: &mut DocumentBuilder, t: &Document, v: NodeId, f1: &FragmentSet, f2: &FragmentSet) {
        b.begin(t.tag(v));
        let f = Fragment::node(v);
        b.text(match (f1.contains(&f), f2.contains(&f)) {
            (true, true) => "ka kb",
            (true, false) => "ka",
            (false, true) => "kb",
            (false, false) => "",
        });
        for &c in t.children(v) {
            emit(b, t, c, f1, f2);
        }
        b.end();
    }
    let mut b = DocumentBuilder::new();
    emit(&mut b, tree, tree.root(), f1, f2);
    b.finish().unwrap()
}

/// The default work bound never trips on this suite's cells: for every
/// operand pair of Theorem 2's exhaustive check, planted as the
/// occurrences of two terms, every strategy under
/// [`Budget::bounded`] answers exactly what unbounded `evaluate` does.
#[test]
fn default_bound_trips_on_no_exhaustive_cell() {
    let policy = ExecPolicy::with_budget(Budget::bounded());
    for n in 1..=4 {
        for tree in all_trees(n) {
            for f1 in singleton_sets(&tree) {
                for f2 in singleton_sets(&tree) {
                    let doc = with_terms(&tree, &f1, &f2);
                    let idx = InvertedIndex::build(&doc);
                    for filter in [
                        FilterExpr::True,
                        FilterExpr::MaxSize(2),
                        FilterExpr::MinSize(3),
                    ] {
                        let q = Query::new(["ka", "kb"], filter);
                        for s in Strategy::ALL {
                            let r = evaluate_budgeted(&doc, &idx, &q, s, &policy).unwrap();
                            assert!(!r.degradation.is_degraded(), "{s:?} {}", q.filter);
                            assert_eq!(r.fragments, evaluate(&doc, &idx, &q, s).unwrap().fragments);
                        }
                    }
                }
            }
        }
    }
}
