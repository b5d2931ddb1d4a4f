//! `audit-source`: the Level 2 workspace source audit.
//!
//! Lexes the workspace's own `src/` trees and enforces the project rules
//! described in [`hslb_audit::source`], routes findings through the
//! allowlist and exits nonzero when any survive. Output is deterministic
//! and sorted so CI diffs are stable.
//!
//! ```text
//! audit-source [--root DIR] [--allowlist FILE] [--json FILE]
//!              [--check-allow] [--list-rules]
//! ```
//!
//! `--json FILE` writes the machine-readable dump: the findings and an
//! `audit.source` telemetry summary point (files scanned, findings,
//! allowlisted) in the event-sink format used by the BENCH artifacts. `--check-allow` additionally fails when an allowlist
//! entry suppressed nothing this scan — entries rot across refactors.

#![forbid(unsafe_code)]

use hslb_audit::source::{scan_workspace, Allowlist, ScanOutcome, RULES};
use hslb_telemetry::json::Value;
use hslb_telemetry::Telemetry;
use std::path::PathBuf;
use std::process::ExitCode;

fn run() -> Result<ExitCode, String> {
    let mut root = PathBuf::from(".");
    let mut allowlist_path: Option<PathBuf> = None;
    let mut json_path: Option<PathBuf> = None;
    let mut check_allow = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().ok_or("--root needs a directory")?);
            }
            "--allowlist" => {
                allowlist_path = Some(PathBuf::from(
                    args.next().ok_or("--allowlist needs a file")?,
                ));
            }
            "--json" => {
                json_path = Some(PathBuf::from(args.next().ok_or("--json needs a file")?));
            }
            "--check-allow" => check_allow = true,
            "--list-rules" => {
                for (id, desc) in RULES {
                    println!("{id}: {desc}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!(
                    "usage: audit-source [--root DIR] [--allowlist FILE] [--json FILE] \
                     [--check-allow] [--list-rules]"
                );
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    // Default allowlist: scripts/audit.allow under the root, if present.
    let allow = match allowlist_path.or_else(|| {
        let p = root.join("scripts/audit.allow");
        p.is_file().then_some(p)
    }) {
        Some(p) => {
            let content = std::fs::read_to_string(&p)
                .map_err(|e| format!("cannot read allowlist {}: {e}", p.display()))?;
            Allowlist::parse(&content)?
        }
        None => Allowlist::default(),
    };

    let outcome = scan_workspace(&root, &allow).map_err(|e| format!("scan failed: {e}"))?;

    for f in &outcome.findings {
        println!("{f}");
    }
    let stale = outcome.stale_entries(&allow);
    if check_allow {
        for (i, e) in &stale {
            println!(
                "stale allowlist entry {} ({} | {} | {}): suppressed nothing this scan",
                i + 1,
                e.rule,
                e.path_suffix,
                e.substring
            );
        }
    }
    println!(
        "audit-source: {} files scanned, {} finding(s), {} allowlisted{}",
        outcome.files_scanned,
        outcome.findings.len(),
        outcome.allowlisted,
        if check_allow {
            format!(", {} stale allowlist entr(ies)", stale.len())
        } else {
            String::new()
        }
    );

    if let Some(path) = &json_path {
        let doc = json_dump(&outcome);
        std::fs::write(path, doc.to_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let failed = !outcome.findings.is_empty() || (check_allow && !stale.is_empty());
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// The machine-readable dump: findings + an `audit.source` telemetry
/// summary point in the event-sink snapshot format.
fn json_dump(outcome: &ScanOutcome) -> Value {
    let findings = Value::Arr(
        outcome
            .findings
            .iter()
            .map(|f| {
                Value::Obj(vec![
                    ("rule".into(), Value::Str(f.rule.to_string())),
                    ("path".into(), Value::Str(f.path.clone())),
                    ("line".into(), Value::Num(f.line as f64)),
                    ("message".into(), Value::Str(f.message.clone())),
                ])
            })
            .collect(),
    );

    // The summary point rides the same snapshot schema as the service
    // BENCH artifacts, so dashboards ingest both uniformly.
    let tel = Telemetry::new();
    tel.point(
        "audit.source",
        &[
            ("files_scanned", outcome.files_scanned as f64),
            ("findings", outcome.findings.len() as f64),
            ("allowlisted", outcome.allowlisted as f64),
        ],
        &[("level", "2")],
    );
    let snapshot = hslb_telemetry::json::parse(&tel.snapshot().to_json()).unwrap_or(Value::Null);

    Value::Obj(vec![
        ("findings".into(), findings),
        ("telemetry".into(), snapshot),
    ])
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("audit-source: {e}");
            ExitCode::from(2)
        }
    }
}
