//! §III-E performance claim: "the MINLP for 40960 nodes took less than 60
//! seconds to solve on one core". Also prints a solve-time sweep over
//! machine sizes.
//!
//! `cargo run --release -p hslb-bench --bin solver_claim`

use hslb::{Hslb, HslbOptions};
use hslb_bench::simulator_for;
use hslb_cesm::{Machine, Resolution};

fn main() {
    let sim = simulator_for(Resolution::OneDegree, true);
    let h = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = h.fit(&h.gather()).expect("fit");

    println!("# MINLP solve time vs machine size (1deg model, one core)");
    println!(
        "{:>8} {:>10} {:>10} {:>10} {:>12}",
        "N", "bb nodes", "lp solves", "oa cuts", "objective"
    );
    for n in [128i64, 512, 2048, 8192, 16_384, Machine::intrepid().nodes] {
        let solved = Hslb::new(&sim, HslbOptions::new(n))
            .solve(&fits)
            .expect("solve");
        let s = solved.solver_stats.expect("stats");
        println!(
            "{n:>8} {:>10} {:>10} {:>10} {:>12.3}",
            s.nodes, s.lp_solves, s.cuts, solved.predicted_total
        );
        eprintln!("{n:>8} wall {:.2?}", s.wall);
        if n == Machine::intrepid().nodes {
            let ok = s.wall.as_secs() < 60;
            eprintln!(
                "full-machine (40960-node) solve: {:?} — paper bound <60s: {}",
                s.wall,
                if ok { "PASS" } else { "FAIL" }
            );
        }
    }
}
