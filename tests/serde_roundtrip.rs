//! JSON serialization round-trips for the public data types — anything a
//! service embedding xfrag would persist or ship over the wire: filters,
//! plans, queries, fragments, fragment sets, stats, documents.

use xfrag::core::{
    EvalStats, FilterExpr, FixpointMode, Fragment, FragmentSet, LogicalPlan, Query, Strategy,
};
use xfrag::doc::{parse_str, Document, NodeId};

fn roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn filter_expr_roundtrips() {
    for f in [
        FilterExpr::True,
        FilterExpr::MaxSize(3),
        FilterExpr::MaxHeight(2),
        FilterExpr::MaxWidth(9),
        FilterExpr::MaxDiameter(4),
        FilterExpr::MinSize(2),
        FilterExpr::ContainsTerm("xquery".into()),
        FilterExpr::LeafTerm("xquery".into()),
        FilterExpr::EqualDepth("a".into(), "b".into()),
        FilterExpr::RootTag("sec".into()),
        FilterExpr::and([FilterExpr::MaxSize(3), FilterExpr::MinSize(1)]),
        FilterExpr::or([FilterExpr::MaxHeight(1), FilterExpr::MaxWidth(2)]),
        FilterExpr::Not(Box::new(FilterExpr::MaxSize(1))),
    ] {
        assert_eq!(roundtrip(&f), f);
        // Anti-monotonicity classification survives (it is structural).
        assert_eq!(roundtrip(&f).is_anti_monotonic(), f.is_anti_monotonic());
    }
}

#[test]
fn query_and_plan_roundtrip() {
    let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3)).with_strict_leaf_semantics();
    assert_eq!(roundtrip(&q), q);

    let plan = LogicalPlan::for_strategy(&q, Strategy::PushDown).unwrap();
    let back = roundtrip(&plan);
    assert_eq!(back, plan);
    assert_eq!(back.render(), plan.render());
}

#[test]
fn fragment_and_set_roundtrip() {
    let d = parse_str("<a><b><c/></b><d/></a>").unwrap();
    let f = Fragment::from_nodes(&d, [NodeId(0), NodeId(1), NodeId(3)]).unwrap();
    assert_eq!(roundtrip(&f), f);

    let set = FragmentSet::from_iter([
        f.clone(),
        Fragment::node(NodeId(2)),
        Fragment::node(NodeId(3)),
    ]);
    let back: FragmentSet = roundtrip(&set);
    assert_eq!(back, set);
    // Dedup machinery works on the deserialized set.
    let mut back = back;
    assert!(!back.insert(f));
    assert_eq!(back.len(), 3);
}

#[test]
fn stats_and_mode_roundtrip() {
    let st = EvalStats {
        joins: 42,
        filter_pruned: 7,
        fixpoint_iterations: 3,
        ..Default::default()
    };
    assert_eq!(roundtrip(&st), st);
    assert_eq!(roundtrip(&FixpointMode::Reduced), FixpointMode::Reduced);
}

#[test]
fn document_roundtrips_through_json() {
    let d: Document =
        parse_str(r#"<article lang="en"><sec><par>alpha &amp; beta</par></sec></article>"#)
            .unwrap();
    let back: Document = roundtrip(&d);
    assert_eq!(back, d);
    back.validate().unwrap();
}

/// A deserialized document is outside input: labels that are well formed
/// but belong to another tree must fail validation, since every `lca`
/// and `path` is answered from them.
#[test]
fn document_with_tampered_labels_fails_validation() {
    let chain = parse_str("<r><a><b/></a></r>").unwrap();
    let star = parse_str("<r><a/><b/></r>").unwrap();
    let (jc, js) = (
        serde_json::to_string(&chain).unwrap(),
        serde_json::to_string(&star).unwrap(),
    );
    // The labels are the document's last field: graft the star's onto
    // the chain's tree.
    let (ic, is) = (
        jc.find("\"labels\"").unwrap(),
        js.find("\"labels\"").unwrap(),
    );
    let tampered: Document = serde_json::from_str(&format!("{}{}", &jc[..ic], &js[is..])).unwrap();
    let err = tampered.validate().unwrap_err();
    assert!(err.contains("labels"), "{err}");
}

#[test]
fn plan_json_is_stable_for_caching() {
    let q = Query::new(["alpha", "beta"], FilterExpr::MaxSize(3));
    let plan = || LogicalPlan::for_strategy(&q, Strategy::BruteForce).unwrap();
    let p1 = serde_json::to_string(&plan()).unwrap();
    let p2 = serde_json::to_string(&plan()).unwrap();
    assert_eq!(p1, p2);
}
