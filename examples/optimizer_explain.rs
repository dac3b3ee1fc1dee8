//! Watch the optimizer work: the Figure 5 evaluation trees before and
//! after each rewrite rule, with the work each plan performs.
//!
//! ```sh
//! cargo run --example optimizer_explain
//! ```

use xfrag::core::cost::CostModel;
use xfrag::core::plan::execute_traced;
use xfrag::core::trace::Tracer;
use xfrag::core::Governor;
use xfrag::prelude::*;

fn main() {
    let fig = xfrag::corpus::figure1();
    let doc = &fig.doc;
    let index = InvertedIndex::build(doc);

    let query = Query::new(
        ["xquery", "optimization"],
        FilterExpr::and([FilterExpr::MaxSize(3), FilterExpr::MinSize(2)]),
    );

    let plan = LogicalPlan::for_query(&query).unwrap();
    let optimizer = Optimizer::standard(doc, &index, CostModel::default());

    for (stage, p) in optimizer.optimize_traced(plan) {
        println!("═══ {stage} ═══");
        print!("{}", p.render());
        let mut st = EvalStats::new();
        match execute_traced(
            &p,
            doc,
            &index,
            &mut st,
            &Governor::unlimited(),
            &Tracer::disabled(),
        ) {
            Ok(answers) => println!(
                "→ {} answers | joins {} | filter evals {} | pruned {}\n",
                answers.len(),
                st.joins,
                st.filter_evals,
                st.filter_pruned
            ),
            Err(e) => println!("→ not executable: {e}\n"),
        }
    }

    println!("Note how `size≤3` (anti-monotonic) moved below the joins and into");
    println!("the fixed points, while `size≥2` (not anti-monotonic) stayed on top —");
    println!("exactly the Theorem 3 boundary.");
}
