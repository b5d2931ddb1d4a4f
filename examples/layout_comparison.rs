//! Figure 4 as a program: predict the scaling of all three component
//! layouts at 1° resolution from one set of fitted curves — including the
//! two layouts the paper never actually ran.
//!
//! Run with: `cargo run --release --example layout_comparison`

use cesm_hslb::hslb::whatif;
use cesm_hslb::prelude::*;

fn main() -> Result<(), HslbError> {
    let sim = Simulator::one_degree(42);
    let pipeline = Hslb::new(&sim, HslbOptions::new(2048));
    let data = pipeline.gather();
    let fits = pipeline.fit(&data)?;

    // The configured machine's floors and sets hold at every count.
    let node_counts = [128, 256, 512, 1024, 2048];
    let predictions = whatif::predict_layout_scaling(&fits, &sim.config, &node_counts);

    println!("predicted optimal time (s) per layout — Figure 4");
    print!("{:>8}", "nodes");
    for p in &predictions {
        print!("{:>12}", format!("layout({})", p.layout.number()));
    }
    println!("{:>12}", "layout(1exp)");

    let mut experimental = Vec::new();
    for (i, &n) in node_counts.iter().enumerate() {
        print!("{n:>8}");
        for p in &predictions {
            print!("{:>12.2}", p.points[i].1);
        }
        // The experimental check the paper overlays on layout 1: actually
        // run the predicted-best layout-1 allocation.
        let alloc = predictions[0].points[i].2;
        let run = sim
            .run_case(&alloc, Layout::Hybrid, i as u64)
            .expect("layout-1 allocation is valid");
        println!("{:>12.2}", run.total);
        experimental.push(run.total);
    }

    // R² between predicted and experimental layout-1 series (the paper
    // reports 1.0).
    let predicted: Vec<f64> = predictions[0].points.iter().map(|p| p.1).collect();
    let r2 = cesm_hslb::numerics::stats::r_squared(&experimental, &predicted).unwrap();
    println!("\nR² (layout-1 predicted vs experimental) = {r2:.4}   (paper: 1.0)");
    println!("expected ordering: layout (1) ≈ layout (2), layout (3) worst");
    Ok(())
}
