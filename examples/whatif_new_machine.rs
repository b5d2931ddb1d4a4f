//! §IV-C what-if studies: optimal node counts for a job, cost-efficiency
//! frontiers, and "more exotic and less reliable predictions such as the
//! prediction of CESM scaling on new hardware".
//!
//! Run with: `cargo run --release --example whatif_new_machine`

use cesm_hslb::hslb::{cost, whatif};
use cesm_hslb::prelude::*;

fn main() -> Result<(), HslbError> {
    let sim = Simulator::one_degree(42);
    let pipeline = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = pipeline.fit(&pipeline.gather())?;

    // 1. Cost-efficient node count: the largest size whose speedup over
    //    the frontier's first count is still ≥ 70 % of the ideal, read
    //    from the exact frontier of the configured machine (its floors and
    //    sets) at every count up to the whole machine.
    let config = &sim.config;
    let machine = Machine::intrepid();
    let frontier = cost::frontier(&fits, config, &machine, Layout::Hybrid, 64, machine.nodes);
    if let Some(sweet) = cost::largest_efficient(&frontier, 0.70) {
        println!(
            "cost-efficient size on {}: {} nodes, predicted {:.1}s \
             (efficiency {:.0}% against {} nodes)",
            machine.name,
            sweet.nodes,
            sweet.time_s,
            100.0 * sweet.efficiency,
            frontier[0].nodes
        );
    }

    // 2. The shortest-time-to-solution point, regardless of cost.
    println!("\nscaling frontier (1° model):");
    for p in frontier
        .iter()
        .filter(|p| (7..=15).any(|k| p.nodes == 1 << k))
    {
        println!("  {:>6} nodes → {:>8.2}s", p.nodes, p.time_s);
    }

    // 3. New hardware: a hypothetical 8×-Intrepid. The *curves* are the
    //    per-node performance model, so predicting a bigger machine means
    //    re-solving the allocation problem with a bigger N (the paper
    //    flags this as exploratory — extrapolation beyond measured
    //    counts).
    let big = Machine::hypothetical_exascale();
    let problem =
        LayoutModelOptions::from_config(config, Layout::Hybrid, Objective::MinMax, big.nodes);
    match ExhaustiveOptimizer::for_problem(&fits, &problem).try_solve(Objective::MinMax) {
        Some(res) => println!(
            "\non {} ({} nodes): predicted {:.2}s with {}",
            big.name, big.nodes, res.objective, res.allocation
        ),
        None => println!("\non {} ({} nodes): nothing fits", big.name, big.nodes),
    }

    // 4. Component swap: what if a rewritten ocean model scaled 3× better?
    let ocn = fits.curve(Component::Ocn)?;
    let better_ocean = ScalingCurve {
        a: ocn.a / 3.0,
        b: ocn.b,
        c: ocn.c,
        d: ocn.d / 2.0,
    };
    let swap = whatif::predict_component_swap(
        &fits,
        config,
        Layout::Hybrid,
        2048,
        Component::Ocn,
        better_ocean,
    );
    if let Some((before, after)) = swap {
        println!(
            "\nrewriting POP (3x scalable part): {before:.1}s → {after:.1}s at 2048 nodes \
             ({:+.0}%)",
            100.0 * (before - after) / before
        );
    }
    Ok(())
}
