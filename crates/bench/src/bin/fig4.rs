//! Regenerate Figure 4: predicted scaling curves of layouts 1–3 at 1°
//! resolution, with experimental data overlaid on layout (1) and the R²
//! between them.
//!
//! `cargo run --release -p hslb-bench --bin fig4`

use hslb::whatif::predict_layout_scaling;
use hslb::{Hslb, HslbOptions};
use hslb_bench::simulator_for;
use hslb_cesm::{Layout, Resolution};

fn main() {
    let sim = simulator_for(Resolution::OneDegree, true);
    let pipeline = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = pipeline.fit(&pipeline.gather()).expect("fit");

    let counts = [128i64, 256, 512, 1024, 2048];
    let pred = predict_layout_scaling(&fits, &sim.config, &counts);

    println!("# Figure 4: predicted layout scaling at 1deg (+ layout-1 experimental)");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>14}",
        "nodes", "layout(1)", "layout(2)", "layout(3)", "layout(1exp)"
    );
    let mut predicted = Vec::new();
    let mut experimental = Vec::new();
    for (i, &n) in counts.iter().enumerate() {
        let exp = sim
            .run_case(&pred[0].points[i].2, Layout::Hybrid, i as u64)
            .expect("allocation valid")
            .total;
        println!(
            "{n:>8} {:>12.2} {:>12.2} {:>12.2} {:>14.2}",
            pred[0].points[i].1, pred[1].points[i].1, pred[2].points[i].1, exp
        );
        predicted.push(pred[0].points[i].1);
        experimental.push(exp);
    }
    let r2 = hslb_numerics::stats::r_squared(&experimental, &predicted).unwrap();
    println!("\nR^2 predicted-vs-experimental for layout (1): {r2:.4}  (paper: 1.0)");
    println!("# paper: layouts 1 and 2 similar, layout 3 worst");
}
