//! Benchmark the §III-E claim: MINLP solve time as the machine grows to
//! the full 40,960 nodes (paper: <60 s on one core; we are far under).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hslb::{Hslb, HslbOptions};
use hslb_bench::simulator_for;
use hslb_cesm::Resolution;

fn bench_solver_scaling(c: &mut Criterion) {
    let sim = simulator_for(Resolution::OneDegree, true);
    let h = Hslb::new(&sim, HslbOptions::new(2048));
    let fits = h.fit(&h.gather()).expect("fit");

    let mut group = c.benchmark_group("minlp_solve_vs_nodes");
    for n in [128i64, 1024, 8192, 40_960] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let hn = Hslb::new(&sim, HslbOptions::new(n));
            b.iter(|| {
                let solved = hn.solve(&fits).expect("solve");
                std::hint::black_box(solved.predicted_total)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_solver_scaling
}
criterion_main!(benches);
