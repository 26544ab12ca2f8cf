//! Targeting your own library: the `addvec`/`constvec` example of §IV.C.2.
//!
//! The paper argues LIAR "can be easily adapted to different libraries by
//! providing appropriate idiom descriptions". This example defines a
//! two-function library using nothing but pattern pairs in the IR's own
//! syntax, and recognizes both functions — including the *latent*
//! `constvec`, which never appears in the input program.
//!
//! Run with: `cargo run --example custom_library`

use liar::core::rules::{core_rules, scalar_rules, RuleConfig};
use liar::egraph::{Extractor, Rewrite, Runner};
use liar::ir::{dsl, ArrayEGraph, ArrayLang};

fn main() {
    // The program: add 42 to each element of xs.
    //   build n (λ xs[•0] + 42)
    let n = 64;
    let program = dsl::build(
        n,
        dsl::lam(dsl::add(
            dsl::get(dsl::sym("xs"), dsl::var(0)),
            dsl::num(42.0),
        )),
    );
    println!("program:\n  {program}\n");

    // The library's idioms, written in the IR itself. We reuse the `add`
    // and `full` call constructors as stand-ins for addvec/constvec.
    let idioms = vec![
        Rewrite::from_patterns(
            "addvec",
            "(build ?n (lam (+ (get (sh1 ?a) %0) (get (sh1 ?b) %0))))",
            "(add ?n ?a ?b)",
        ),
        Rewrite::from_patterns("constvec", "(build ?n (lam (sh1 ?c)))", "(full ?n ?c)"),
    ];

    // Saturate with the core + scalar rules plus the custom idioms.
    let mut rules = core_rules(&RuleConfig::default());
    rules.extend(scalar_rules());
    rules.extend(idioms);

    let mut egraph = ArrayEGraph::default();
    let root = egraph.add_expr(&program);
    let mut runner = Runner::new(egraph).with_iter_limit(6);
    let stop = runner.run(&rules);
    println!(
        "saturation: {} steps, {} e-nodes ({stop})",
        runner.iterations.len(),
        runner.egraph.num_nodes(),
    );

    // A cost model that loves library calls.
    struct LoveCalls;
    impl liar::egraph::CostFunction<ArrayLang, liar::ir::ArrayAnalysis> for LoveCalls {
        fn cost<F: FnMut(liar::egraph::Id) -> f64>(
            &self,
            _eg: &ArrayEGraph,
            enode: &ArrayLang,
            child: &mut F,
        ) -> f64 {
            use liar::egraph::Language;
            let op = match enode {
                ArrayLang::Call(..) => 1.0,
                ArrayLang::Build(_) | ArrayLang::IFold(_) => 1000.0,
                _ => 1.0,
            };
            enode.fold(op, |acc, c| acc + child(c))
        }
    }

    let extractor = Extractor::new(&runner.egraph, LoveCalls);
    let (_, best) = extractor.find_best(root);
    println!("\nbest expression:\n  {best}");
    assert_eq!(best.to_string(), format!("(add #{n} xs (full #{n} 42))"));
    println!("\nLIAR found the latent constvec: addvec(xs, constvec(42)).");
}
