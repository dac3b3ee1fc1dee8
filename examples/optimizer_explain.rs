//! Watch the rewrites work: the Figure 5 evaluation tree each strategy
//! runs, from the canonical powerset form through Theorems 2 and 3, with
//! the work each strategy performs.
//!
//! ```sh
//! cargo run --example optimizer_explain
//! ```

use xfrag::prelude::*;

fn main() {
    let fig = xfrag::corpus::figure1();
    let doc = &fig.doc;
    let index = InvertedIndex::build(doc);

    let query = Query::new(
        ["xquery", "optimization"],
        FilterExpr::and([FilterExpr::MaxSize(3), FilterExpr::MinSize(2)]),
    );

    for strategy in Strategy::ALL {
        println!("═══ {} ═══", strategy.name());
        print!(
            "{}",
            LogicalPlan::for_strategy(&query, strategy)
                .unwrap()
                .render()
        );
        match evaluate(doc, &index, &query, strategy) {
            Ok(r) => println!(
                "→ {} answers | joins {} | filter evals {} | pruned {}\n",
                r.fragments.len(),
                r.stats.joins,
                r.stats.filter_evals,
                r.stats.filter_pruned
            ),
            Err(e) => println!("→ not executable: {e}\n"),
        }
    }

    println!("Note how `size≤3` (anti-monotonic) moved below the joins and into");
    println!("the fixed points, while `size≥2` (not anti-monotonic) stayed on top —");
    println!("exactly the Theorem 3 boundary.");
}
