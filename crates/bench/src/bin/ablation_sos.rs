//! §III-E ablation: branch on the special-ordered sets vs on individual
//! binary variables. The paper credits SOS branching with two orders of
//! magnitude of MINLP solve-time improvement. The `sos` arm is the model
//! the product solves — the sets as domains on `n_ocn` / `n_atm`, what
//! Table I's SOS-1 sets project to; the `binary` arm is Table I's literal
//! binaries (`Model::expand_domains`), branched one by one.
//!
//! `cargo run --release -p hslb-bench --bin ablation_sos`

use hslb::{Hslb, HslbOptions};
use hslb_bench::simulator_for;
use hslb_cesm::Resolution;
use hslb_minlp::Branching;

fn main() {
    let sim = simulator_for(Resolution::OneDegree, true);
    println!("# SOS-1 branching vs individual-binary branching (1deg model)");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>12}",
        "nodes", "branching", "bb nodes", "lp solves", "objective"
    );
    for target in [128i64, 512, 2048] {
        let h = Hslb::new(&sim, HslbOptions::new(target));
        let fits = h.fit(&h.gather()).expect("fit");
        let mut ratio = [0.0f64; 2];
        for (i, branching) in [Branching::SosFirst, Branching::IntegerOnly]
            .into_iter()
            .enumerate()
        {
            let mut opts = HslbOptions::new(target);
            opts.solver.branching = branching;
            let solved = Hslb::new(&sim, opts).solve(&fits).expect("solve");
            let stats = solved.solver_stats.expect("minlp stats");
            let label = match branching {
                Branching::SosFirst => "sos",
                Branching::IntegerOnly => "binary",
            };
            ratio[i] = stats.wall.as_secs_f64();
            println!(
                "{target:>8} {label:>12} {:>10} {:>10} {:>12.3}",
                stats.nodes, stats.lp_solves, solved.predicted_total
            );
            eprintln!("{target:>8} {label:>12} wall {:.2?}", stats.wall);
        }
        eprintln!(
            "{target:>8} speedup from SOS branching: {:.0}x",
            ratio[1] / ratio[0].max(1e-9)
        );
    }
    println!("\n# paper: SOS branching improved solver runtime by two orders of magnitude");
}
