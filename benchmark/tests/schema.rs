//! The schema self-test: run the whole suite at 1/20 of the counts and
//! let it hold every run to `BENCHMARK.json` — each declared workload
//! runs, each declared metric comes back by name with the declared unit
//! and a finite value, and no op fails its output checks.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_suite_reports_every_declared_metric() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark crate sits one level under the repo root");
    let out = Command::new(env!("CARGO_BIN_EXE_hslb-benchmark"))
        .args(["suite", "--smoke"])
        .current_dir(repo_root)
        .output()
        .expect("run the benchmark binary");
    assert!(
        out.status.success(),
        "suite --smoke failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
