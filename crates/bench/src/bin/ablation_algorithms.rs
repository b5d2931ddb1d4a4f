//! Solver-design ablation: LP/NLP-based branch-and-bound (single tree,
//! lazy OA cuts — the paper's choice) vs classic NLP-based
//! branch-and-bound (each node's relaxation solved to convergence), and
//! best-bound vs depth-first node selection.
//!
//! `cargo run --release -p hslb-bench --bin ablation_algorithms`

use hslb::{Hslb, HslbOptions};
use hslb_bench::simulator_for;
use hslb_cesm::Resolution;
use hslb_minlp::{Algorithm, NodeSelection};

fn main() {
    let sim = simulator_for(Resolution::OneDegree, true);
    let target = 1024i64;
    let h = Hslb::new(&sim, HslbOptions::new(target));
    let fits = h.fit(&h.gather()).expect("fit");

    println!("# solver-design ablation (1deg, {target} nodes)");
    println!(
        "{:>22} {:>10} {:>10} {:>12}",
        "configuration", "bb nodes", "lp solves", "objective"
    );
    for (label, algorithm, selection) in [
        (
            "lpnlp+bestbound",
            Algorithm::LpNlpBb,
            NodeSelection::BestBound,
        ),
        (
            "lpnlp+depthfirst",
            Algorithm::LpNlpBb,
            NodeSelection::DepthFirst,
        ),
        (
            "nlpbb+bestbound",
            Algorithm::NlpBb,
            NodeSelection::BestBound,
        ),
        (
            "nlpbb+depthfirst",
            Algorithm::NlpBb,
            NodeSelection::DepthFirst,
        ),
    ] {
        let mut opts = HslbOptions::new(target);
        opts.solver.algorithm = algorithm;
        opts.solver.node_selection = selection;
        let solved = Hslb::new(&sim, opts).solve(&fits).expect("solve");
        let s = solved.solver_stats.expect("stats");
        println!(
            "{label:>22} {:>10} {:>10} {:>12.3}",
            s.nodes, s.lp_solves, solved.predicted_total
        );
        eprintln!("{label:>22} wall {:.2?}", s.wall);
    }
    println!(
        "\n# expected: all four find the same optimum; LP/NLP-BB does fewer \
         LP solves per node (the reason the paper's MINOTAUR setup uses it)"
    );
}
