//! The HSLB "black box" (§V): "It is our intention to develop a 'black
//! box' from HSLB which would allow anyone, especially scientists without
//! experience at manual optimization, to run CESM efficiently on
//! supercomputers or clusters."
//!
//! One command in, a ready-to-use `env_mach_pes.xml` out:
//!
//! ```text
//! cargo run --release -p hslb-bench --bin autotune -- \
//!     --resolution 1deg --nodes 512 [--layout 1] [--free-ocean] \
//!     [--objective minmax] [--deadline <seconds>] [--faults <[seed:]rate>]
//! ```
//!
//! `--faults 7:0.2` injects a deterministic fault stream (seed 7, 20 %
//! failures/hangs/garbage/corruption) into the simulated cluster — a rehearsal
//! of the retry/backoff gather and the solver degradation ladder.

use hslb::{cost, Hslb, HslbOptions, Objective};
use hslb_bench::simulator_for;
use hslb_cesm::{pes, FaultSpec, Layout, Machine, Resolution};

struct Args {
    resolution: Resolution,
    nodes: i64,
    layout: Layout,
    free_ocean: bool,
    objective: Objective,
    deadline: Option<f64>,
    faults: Option<FaultSpec>,
}

fn usage() -> ! {
    eprintln!(
        "usage: autotune --resolution <1deg|8th> --nodes <N> \
         [--layout <1|2|3>] [--free-ocean] [--objective <minmax|maxmin|sum>] \
         [--deadline <seconds>] [--faults <[seed:]rate>]"
    );
    std::process::exit(2);
}

/// `--faults 0.2` (seed 0) or `--faults 7:0.2` (explicit stream seed).
fn parse_faults(arg: &str) -> Option<FaultSpec> {
    let (seed, rate) = match arg.split_once(':') {
        Some((s, r)) => (s.parse::<u64>().ok()?, r.parse::<f64>().ok()?),
        None => (0, arg.parse::<f64>().ok()?),
    };
    (0.0..=1.0)
        .contains(&rate)
        .then(|| FaultSpec::flaky(seed, rate))
}

fn parse_args() -> Args {
    let mut resolution = None;
    let mut nodes = None;
    let mut layout = Layout::Hybrid;
    let mut free_ocean = false;
    let mut objective = Objective::MinMax;
    let mut deadline = None;
    let mut faults = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--resolution" => {
                resolution = match it.next().as_deref() {
                    Some("1deg") => Some(Resolution::OneDegree),
                    Some("8th") | Some("1/8deg") => Some(Resolution::EighthDegree),
                    _ => usage(),
                }
            }
            "--nodes" => {
                nodes = it.next().and_then(|v| v.parse::<i64>().ok());
                if nodes.is_none() {
                    usage();
                }
            }
            "--layout" => {
                let number = it.next().and_then(|v| v.parse::<u8>().ok());
                layout = match Layout::ALL.into_iter().find(|l| Some(l.number()) == number) {
                    Some(l) => l,
                    None => usage(),
                }
            }
            "--free-ocean" => free_ocean = true,
            "--objective" => {
                objective = match it.next().as_deref() {
                    Some("minmax") => Objective::MinMax,
                    Some("maxmin") => Objective::MaxMin,
                    Some("sum") => Objective::SumTime,
                    _ => usage(),
                }
            }
            "--deadline" => {
                deadline = it.next().and_then(|v| v.parse::<f64>().ok());
                if deadline.is_none() {
                    usage();
                }
            }
            "--faults" => {
                faults = it.next().as_deref().and_then(parse_faults);
                if faults.is_none() {
                    usage();
                }
            }
            _ => usage(),
        }
    }
    let (Some(resolution), Some(nodes)) = (resolution, nodes) else {
        usage();
    };
    Args {
        resolution,
        nodes,
        layout,
        free_ocean,
        objective,
        deadline,
        faults,
    }
}

fn main() {
    let args = parse_args();
    let mut sim = simulator_for(args.resolution, !args.free_ocean);
    if let Some(spec) = args.faults {
        eprintln!(
            "# injecting faults: seed {}, {:.0}% fail/hang/garbage/corrupt",
            spec.seed,
            spec.fail_rate * 100.0
        );
        sim = sim.with_faults(spec);
    }
    let mut opts = HslbOptions::new(args.nodes);
    opts.layout = args.layout;
    opts.objective = args.objective;
    let h = Hslb::new(&sim, opts);

    eprintln!("# gathering benchmark data ({})", sim.resolution());
    let (data, gather) = h.gather_resilient();
    if !gather.is_clean() {
        eprintln!("# gather: {gather}");
    }
    // Strict path: fit + MINLP. Any refusal hands control to the full
    // pipeline, which walks the degradation ladder and reports the rung.
    let strict = h.fit(&data).and_then(|fits| {
        for (c, f) in fits.iter() {
            eprintln!("#   {c}: R^2 = {:.5}", f.r_squared);
        }
        let solved = h.solve(&fits)?;
        Ok((fits, solved))
    });
    let (fits, allocation) = match strict {
        Ok((fits, solved)) => {
            eprintln!(
                "# optimal allocation for {} nodes: {} (predicted {:.1}s)",
                args.nodes, solved.allocation, solved.predicted_total
            );
            (Some(fits), solved.allocation)
        }
        Err(e) => {
            eprintln!("# strict pipeline refused ({e}); engaging the degradation ladder");
            match h.run(None) {
                Ok(report) => {
                    if let Some(res) = &report.resilience {
                        eprintln!("# {res}");
                    }
                    eprintln!(
                        "# degraded allocation for {} nodes: {}",
                        args.nodes, report.hslb.allocation
                    );
                    (None, report.hslb.allocation)
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
    };

    if let (Some(deadline), Some(fits)) = (args.deadline, fits.as_ref()) {
        let frontier = cost::frontier(
            fits,
            &sim.config,
            &Machine::intrepid(),
            args.layout,
            (args.nodes / 16).max(8),
            args.nodes,
        );
        match cost::cheapest_within_deadline(&frontier, deadline) {
            Some(p) => eprintln!(
                "# cheapest size meeting {deadline}s deadline: {} nodes \
                 ({:.1}s, {:.0} core-hours)",
                p.nodes, p.time_s, p.core_hours
            ),
            None => eprintln!(
                "# no size up to {} nodes meets a {deadline}s deadline",
                args.nodes
            ),
        }
    }

    // The deliverable: env_mach_pes.xml on stdout.
    match pes::build(&Machine::intrepid(), args.layout, &allocation) {
        Ok(layout) => print!("{}", layout.to_xml()),
        Err(e) => {
            eprintln!("PES generation failed: {e}");
            std::process::exit(1);
        }
    }
}
