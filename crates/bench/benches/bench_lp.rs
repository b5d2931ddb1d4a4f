//! Microbenchmark: the bounded-variable simplex on the widest LP shape the
//! MINLP solver meets — the expanded-binaries models of the §III-E ablation
//! (wide SOS-binary columns, few rows).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hslb_lp::{solve, ConstraintSense, LpProblem, SimplexOptions};

/// An SOS-relaxation-shaped LP: `m` binaries with a convexity row, a
/// linking row, a budget row and a handful of cut-like rows.
fn sos_shaped_lp(m: usize, cuts: usize) -> LpProblem {
    let mut p = LpProblem::new();
    let zs: Vec<_> = (0..m)
        .map(|k| p.add_var(&format!("z{k}"), 0.0, 1.0))
        .collect();
    let n = p.add_var("n", 1.0, 2.0 * m as f64);
    let t = p.add_var("T", 0.0, 1e9);
    let conv: Vec<_> = zs.iter().map(|&z| (z, 1.0)).collect();
    p.add_row(&conv, ConstraintSense::Eq, 1.0);
    let mut link: Vec<_> = zs
        .iter()
        .enumerate()
        .map(|(k, &z)| (z, 2.0 * (k + 1) as f64))
        .collect();
    link.push((n, -1.0));
    p.add_row(&link, ConstraintSense::Eq, 0.0);
    p.add_row(&[(n, 1.0)], ConstraintSense::Le, 1.6 * m as f64);
    // Cut-like rows: T ≥ alpha − beta·n (tangent lines of a/n).
    for c in 0..cuts {
        let x0 = 2.0 + (c as f64 / cuts as f64) * (m as f64);
        let a = 5000.0;
        p.add_row(
            &[(t, -1.0), (n, -(-a / (x0 * x0)))],
            ConstraintSense::Le,
            -(a / x0) - (a / (x0 * x0)) * x0,
        );
    }
    p.set_objective(&[(t, 1.0)]);
    p
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex_sos_shape");
    for (m, cuts) in [(241usize, 10usize), (1639, 10), (1639, 60)] {
        let p = sos_shaped_lp(m, cuts);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{m}cols_{cuts}cuts")),
            &p,
            |b, p| {
                b.iter(|| {
                    let s = solve(p, &SimplexOptions::default()).unwrap();
                    std::hint::black_box(s.objective)
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_simplex
}
criterion_main!(benches);
