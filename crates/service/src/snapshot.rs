//! Crash-safe cache snapshots for the tuning service.
//!
//! The exact tier (key → [`TunePayload`]) and the fit tier (key →
//! gathered data + fitted curves) are persisted as one sealed JSON
//! document (see [`hslb_telemetry::codec`]): the body carries a
//! `#hslb-seal v1 len=… fnv=…` footer, and the write is atomic — the
//! document goes to a temp file in the same directory, then `rename`
//! replaces the target, so a crash mid-save leaves the previous snapshot
//! intact, never a half-written one.
//!
//! Restore is paranoid in layers and **never fails the service**:
//!
//! 1. the codec footer catches truncation/corruption of the file as a
//!    whole (kill -9 mid-write, disk bit-flips);
//! 2. each exact-tier entry carries the payload's
//!    [`TunePayload::fingerprint`] as its seal, re-verified on load — a
//!    restored payload is served only if it is bit-identical to what was
//!    computed before the crash, the same bar live responses meet;
//! 3. each fit-tier entry round-trips every float through `f64::to_bits`
//!    hex (JSON `Num` would turn a synthetic fit's `NaN` diagnostics into
//!    `null`), and is rebuilt through [`FitSet::from_fits`]'s
//!    completeness check.
//!
//! Anything that fails any layer is dropped and noted in the
//! [`RecoveryRecord`]; a totally unusable snapshot degrades to a clean
//! cold start with the reason recorded — mirroring the pipeline's
//! `ResilienceReport` philosophy: absorb the fault, report it, keep
//! serving.

use crate::request::TunePayload;
use hslb::{BenchmarkData, FitSet};
use hslb_cesm::Component;
use hslb_nlsq::{ScalingCurve, ScalingFit};
use hslb_telemetry::codec;
use hslb_telemetry::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Schema tag of the snapshot document.
pub const SNAPSHOT_SCHEMA: &str = "hslb-cache-snapshot/v1";

/// When and where the service flushes cache snapshots.
#[derive(Debug, Clone)]
pub struct SnapshotPolicy {
    /// Snapshot file (written atomically; parent directory must exist).
    pub path: PathBuf,
    /// Flush after every this many completed requests (in addition to
    /// the unconditional flush on graceful drain). 0 = drain-only.
    pub every_completions: u64,
}

impl SnapshotPolicy {
    /// Flush to `path` every 32 completions and on drain.
    pub fn new(path: impl Into<PathBuf>) -> SnapshotPolicy {
        SnapshotPolicy {
            path: path.into(),
            every_completions: 32,
        }
    }
}

/// What a snapshot save wrote.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotStats {
    pub exact_entries: usize,
    pub fit_entries: usize,
    pub bytes: usize,
    pub save_ms: f64,
}

/// How a restore attempt went — the service's startup recovery record,
/// surfaced through the `health` wire op.
#[derive(Debug, Clone, Default)]
pub struct RecoveryRecord {
    /// A snapshot file existed and was read.
    pub attempted: bool,
    /// Exact-tier entries restored (seal-verified).
    pub restored_exact: usize,
    /// Fit-tier entries restored (completeness-verified).
    pub restored_fits: usize,
    /// True when nothing usable was restored.
    pub cold_start: bool,
    /// Human-readable notes for every degradation taken.
    pub fallbacks: Vec<String>,
    pub load_ms: f64,
}

impl RecoveryRecord {
    /// JSON object for the `health` op.
    pub fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("attempted".to_string(), Value::Bool(self.attempted)),
            (
                "restored_exact".to_string(),
                Value::Num(self.restored_exact as f64),
            ),
            (
                "restored_fits".to_string(),
                Value::Num(self.restored_fits as f64),
            ),
            ("cold_start".to_string(), Value::Bool(self.cold_start)),
            (
                "fallbacks".to_string(),
                Value::Arr(
                    self.fallbacks
                        .iter()
                        .map(|f| Value::Str(f.clone()))
                        .collect(),
                ),
            ),
            ("load_ms".to_string(), Value::Num(self.load_ms)),
        ])
    }
}

/// The restored cache contents plus the recovery record.
#[derive(Debug, Default)]
pub struct RestoredSnapshot {
    /// Exact-tier entries in LRU-first order, ready for
    /// `FrontDesk::restore_cached`.
    pub exact: Vec<(String, TunePayload)>,
    /// Fit-tier entries in LRU-first order.
    pub fits: Vec<(String, (BenchmarkData, FitSet))>,
    pub record: RecoveryRecord,
}

/// Bit-exact float encoding: `to_bits` as 16 hex chars. The JSON printer
/// renders finite `Num`s shortest-round-trip but turns `NaN`/`inf` into
/// `null`; hex bits survive everything.
fn bits_value(x: f64) -> Value {
    Value::Str(format!("{:016x}", x.to_bits()))
}

fn bits_from(v: &Value, what: &str) -> Result<f64, String> {
    let s = v.as_str().ok_or_else(|| format!("{what}: not a string"))?;
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| format!("{what}: bad hex bits {s:?}"))
}

fn component_from(label: &str) -> Result<Component, String> {
    Component::ALL
        .iter()
        .copied()
        .find(|c| c.label() == label)
        .ok_or_else(|| format!("unknown component {label:?}"))
}

fn fit_to_value(fit: &ScalingFit) -> Value {
    Value::Obj(vec![
        ("a".to_string(), bits_value(fit.curve.a)),
        ("b".to_string(), bits_value(fit.curve.b)),
        ("c".to_string(), bits_value(fit.curve.c)),
        ("d".to_string(), bits_value(fit.curve.d)),
        ("r_squared".to_string(), bits_value(fit.r_squared)),
        ("rmse".to_string(), bits_value(fit.rmse)),
        ("sse".to_string(), bits_value(fit.sse)),
        ("points".to_string(), Value::Num(fit.points as f64)),
        (
            "lm_iterations".to_string(),
            Value::Num(fit.lm_iterations as f64),
        ),
        ("basin_hits".to_string(), Value::Num(fit.basin_hits as f64)),
        ("starts_run".to_string(), Value::Num(fit.starts_run as f64)),
        ("early_stopped".to_string(), Value::Bool(fit.early_stopped)),
        ("synthetic".to_string(), Value::Bool(fit.synthetic)),
    ])
}

fn fit_from_value(v: &Value) -> Result<ScalingFit, String> {
    let usize_of = |k: &str| -> Result<usize, String> {
        v.get(k)
            .and_then(Value::as_f64)
            .map(|x| x as usize)
            .ok_or_else(|| format!("fit field {k}: missing"))
    };
    let bool_of = |k: &str| -> Result<bool, String> {
        v.get(k)
            .and_then(Value::as_bool)
            .ok_or_else(|| format!("fit field {k}: missing"))
    };
    let f = |k: &str| -> Result<f64, String> {
        bits_from(
            v.get(k).ok_or_else(|| format!("fit field {k}: missing"))?,
            k,
        )
    };
    Ok(ScalingFit {
        curve: ScalingCurve {
            a: f("a")?,
            b: f("b")?,
            c: f("c")?,
            d: f("d")?,
        },
        r_squared: f("r_squared")?,
        rmse: f("rmse")?,
        sse: f("sse")?,
        points: usize_of("points")?,
        lm_iterations: usize_of("lm_iterations")?,
        basin_hits: usize_of("basin_hits")?,
        starts_run: usize_of("starts_run")?,
        early_stopped: bool_of("early_stopped")?,
        synthetic: bool_of("synthetic")?,
    })
}

fn data_to_value(data: &BenchmarkData) -> Value {
    Value::Obj(
        data.components()
            .into_iter()
            .map(|c| {
                (
                    c.label().to_string(),
                    Value::Arr(
                        data.of(c)
                            .iter()
                            .map(|&(n, s)| Value::Arr(vec![bits_value(n), bits_value(s)]))
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

fn data_from_value(v: &Value) -> Result<BenchmarkData, String> {
    let Value::Obj(kv) = v else {
        return Err("data: not an object".to_string());
    };
    let mut data = BenchmarkData::new();
    for (label, points) in kv {
        let c = component_from(label)?;
        let pts = points
            .as_arr()
            .ok_or_else(|| format!("data for {label}: not an array"))?;
        for (i, p) in pts.iter().enumerate() {
            let pair = p
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| format!("data point {label}[{i}]: not a [nodes, seconds] pair"))?;
            data.push(
                c,
                bits_from(&pair[0], "nodes")?,
                bits_from(&pair[1], "seconds")?,
            );
        }
    }
    Ok(data)
}

/// Serialize both cache tiers into the sealed snapshot document.
fn snapshot_body(
    exact: &[(String, TunePayload)],
    fits: &[(String, (BenchmarkData, FitSet))],
) -> String {
    let exact_entries: Vec<Value> = exact
        .iter()
        .map(|(key, payload)| {
            Value::Obj(vec![
                ("key".to_string(), Value::Str(key.clone())),
                ("payload".to_string(), payload.to_value()),
                ("seal".to_string(), Value::Str(payload.fingerprint())),
            ])
        })
        .collect();
    let fit_entries: Vec<Value> = fits
        .iter()
        .map(|(key, (data, fitset))| {
            Value::Obj(vec![
                ("key".to_string(), Value::Str(key.clone())),
                ("data".to_string(), data_to_value(data)),
                (
                    "fits".to_string(),
                    Value::Obj(
                        fitset
                            .iter()
                            .map(|(c, fit)| (c.label().to_string(), fit_to_value(fit)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        (
            "schema".to_string(),
            Value::Str(SNAPSHOT_SCHEMA.to_string()),
        ),
        ("exact".to_string(), Value::Arr(exact_entries)),
        ("fits".to_string(), Value::Arr(fit_entries)),
    ])
    .to_string()
}

/// Atomically write a sealed snapshot of both cache tiers.
///
/// The document lands in `<path>.tmp` first and is `rename`d over
/// `path`, so readers (and a crash at any instant) see either the old
/// complete snapshot or the new complete snapshot, never a prefix.
pub fn save_snapshot(
    path: &Path,
    exact: &[(String, TunePayload)],
    fits: &[(String, (BenchmarkData, FitSet))],
) -> Result<SnapshotStats, String> {
    let started = Instant::now();
    let sealed = codec::seal(&snapshot_body(exact, fits));
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, sealed.as_bytes()).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("rename {} -> {}: {e}", tmp.display(), path.display()))?;
    Ok(SnapshotStats {
        exact_entries: exact.len(),
        fit_entries: fits.len(),
        bytes: sealed.len(),
        save_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

fn restore_exact(entries: &[Value], out: &mut RestoredSnapshot) {
    for (i, entry) in entries.iter().enumerate() {
        let keyed = entry.get("key").and_then(Value::as_str);
        let sealed = entry.get("seal").and_then(Value::as_str);
        let parsed = entry
            .get("payload")
            .ok_or_else(|| "missing payload".to_string())
            .and_then(TunePayload::from_value);
        match (keyed, sealed, parsed) {
            (Some(key), Some(seal), Ok(payload)) => {
                // The bit-identity bar: a restored payload is admitted
                // only if its recomputed fingerprint matches the seal
                // taken when it was first computed.
                if payload.fingerprint() == seal {
                    out.exact.push((key.to_string(), payload));
                    out.record.restored_exact += 1;
                } else {
                    out.record
                        .fallbacks
                        .push(format!("exact[{i}] {key:?}: seal mismatch, dropped"));
                }
            }
            (_, _, Err(e)) => out
                .record
                .fallbacks
                .push(format!("exact[{i}]: unparseable ({e}), dropped")),
            _ => out
                .record
                .fallbacks
                .push(format!("exact[{i}]: missing key/seal, dropped")),
        }
    }
}

fn restore_fits(entries: &[Value], out: &mut RestoredSnapshot) {
    for (i, entry) in entries.iter().enumerate() {
        let restored = (|| -> Result<(String, (BenchmarkData, FitSet)), String> {
            let key = entry
                .get("key")
                .and_then(Value::as_str)
                .ok_or("missing key")?;
            let data = data_from_value(entry.get("data").ok_or("missing data")?)?;
            let Some(Value::Obj(fit_kv)) = entry.get("fits") else {
                return Err("missing fits".to_string());
            };
            let mut fits = BTreeMap::new();
            for (label, fv) in fit_kv {
                fits.insert(component_from(label)?, fit_from_value(fv)?);
            }
            let fitset = FitSet::from_fits(fits).map_err(|e| e.to_string())?;
            Ok((key.to_string(), (data, fitset)))
        })();
        match restored {
            Ok(entry) => {
                out.fits.push(entry);
                out.record.restored_fits += 1;
            }
            Err(e) => out
                .record
                .fallbacks
                .push(format!("fits[{i}]: {e}, dropped")),
        }
    }
}

/// Restore a snapshot. **Never fails**: every problem — missing file,
/// truncation, checksum mismatch, schema drift, per-entry damage —
/// degrades to restoring less (down to a clean cold start) with the
/// reason in the [`RecoveryRecord`].
pub fn load_snapshot(path: &Path) -> RestoredSnapshot {
    let started = Instant::now();
    let mut out = RestoredSnapshot::default();
    let bytes = match std::fs::read(path) {
        Ok(bytes) => {
            out.record.attempted = true;
            bytes
        }
        Err(e) => {
            out.record.cold_start = true;
            out.record.fallbacks.push(format!(
                "no snapshot at {}: {e} (cold start)",
                path.display()
            ));
            out.record.load_ms = started.elapsed().as_secs_f64() * 1e3;
            return out;
        }
    };
    let doc = match String::from_utf8(bytes)
        .map_err(|e| format!("snapshot is not UTF-8: {e}"))
        .and_then(|text| {
            let body = codec::unseal(&text).map_err(|e| e.to_string())?;
            parse(body).map_err(|e| format!("snapshot body is not valid JSON: {e}"))
        }) {
        Ok(doc) => doc,
        Err(e) => {
            out.record.cold_start = true;
            out.record.fallbacks.push(format!("{e} (cold start)"));
            out.record.load_ms = started.elapsed().as_secs_f64() * 1e3;
            return out;
        }
    };
    match doc.get("schema").and_then(Value::as_str) {
        Some(SNAPSHOT_SCHEMA) => {}
        other => {
            out.record.cold_start = true;
            out.record.fallbacks.push(format!(
                "unsupported snapshot schema {other:?}, expected {SNAPSHOT_SCHEMA:?} (cold start)"
            ));
            out.record.load_ms = started.elapsed().as_secs_f64() * 1e3;
            return out;
        }
    }
    if let Some(entries) = doc.get("exact").and_then(Value::as_arr) {
        restore_exact(entries, &mut out);
    }
    if let Some(entries) = doc.get("fits").and_then(Value::as_arr) {
        restore_fits(entries, &mut out);
    }
    out.record.cold_start = out.record.restored_exact == 0 && out.record.restored_fits == 0;
    out.record.load_ms = started.elapsed().as_secs_f64() * 1e3;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hslb_cesm::layout::ComponentTimes;
    use hslb_cesm::Allocation;

    fn sample_payload(total: f64) -> TunePayload {
        TunePayload {
            allocation: Allocation {
                lnd: 8,
                ice: 16,
                atm: 48,
                ocn: 24,
            },
            predicted: Some(ComponentTimes {
                lnd: 10.5,
                ice: 20.25,
                atm: 60.125,
                ocn: 59.75,
            }),
            predicted_total: Some(total - 1.0),
            actual: ComponentTimes {
                lnd: 11.0,
                ice: 21.0,
                atm: 61.0,
                ocn: 60.0,
            },
            actual_total: total,
            min_r_squared: Some(0.997),
            rung: "minlp".to_string(),
            degraded: false,
            certified: true,
            audit_passed: Some(true),
        }
    }

    fn sample_fit_entry() -> (String, (BenchmarkData, FitSet)) {
        let mut data = BenchmarkData::new();
        let mut fits = BTreeMap::new();
        for (i, c) in Component::OPTIMIZED.iter().copied().enumerate() {
            data.push(c, 24.0, 300.0 + i as f64);
            data.push(c, 96.0, 90.0 + i as f64);
            let mut fit = ScalingFit::synthetic(ScalingCurve {
                a: 1000.0 + i as f64,
                b: 0.001,
                c: 1.5,
                d: 2.0,
            });
            fit.r_squared = 0.99;
            fit.rmse = 0.5;
            fit.sse = 0.25;
            fit.points = 2;
            fit.synthetic = false;
            fits.insert(c, fit);
        }
        (
            "1deg|oceantrue|seed42|log24:96:4".to_string(),
            (data, FitSet::from_fits(fits).unwrap()),
        )
    }

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hslb-snap-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let path = tmp_path("roundtrip");
        let exact = vec![
            ("k1".to_string(), sample_payload(152.5)),
            ("k2".to_string(), sample_payload(97.0)),
        ];
        let fits = vec![sample_fit_entry()];
        let stats = save_snapshot(&path, &exact, &fits).unwrap();
        assert_eq!((stats.exact_entries, stats.fit_entries), (2, 1));
        let restored = load_snapshot(&path);
        assert!(restored.record.attempted);
        assert!(!restored.record.cold_start);
        assert!(restored.record.fallbacks.is_empty());
        assert_eq!(restored.exact.len(), 2);
        for ((k0, p0), (k1, p1)) in exact.iter().zip(&restored.exact) {
            assert_eq!(k0, k1);
            assert_eq!(p0.fingerprint(), p1.fingerprint(), "bit-identical restore");
        }
        let (key, (data, fitset)) = &restored.fits[0];
        assert_eq!(key, &fits[0].0);
        for c in Component::OPTIMIZED {
            assert_eq!(data.of(c), fits[0].1 .0.of(c));
            let orig = fits[0].1 .1.fit(c).unwrap();
            let back = fitset.fit(c).unwrap();
            assert_eq!(orig.curve.a.to_bits(), back.curve.a.to_bits());
            assert_eq!(orig.r_squared.to_bits(), back.r_squared.to_bits());
            assert_eq!(orig.points, back.points);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn nan_diagnostics_survive_the_round_trip() {
        // Synthetic fits carry NaN diagnostics; plain JSON numbers would
        // flatten them to null.
        let path = tmp_path("nan");
        let mut fits = BTreeMap::new();
        for c in Component::OPTIMIZED {
            fits.insert(
                c,
                ScalingFit::synthetic(ScalingCurve {
                    a: 100.0,
                    b: 0.01,
                    c: 1.2,
                    d: 0.5,
                }),
            );
        }
        let entry = (
            "synthetic".to_string(),
            (BenchmarkData::new(), FitSet::from_fits(fits).unwrap()),
        );
        save_snapshot(&path, &[], &[entry]).unwrap();
        let restored = load_snapshot(&path);
        assert_eq!(restored.record.restored_fits, 1);
        let fit = restored.fits[0].1 .1.fit(Component::Atm).unwrap();
        assert!(fit.r_squared.is_nan());
        assert!(fit.synthetic);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_snapshot_cold_starts_without_attempting() {
        let restored = load_snapshot(Path::new("/nonexistent/dir/snap.json"));
        assert!(!restored.record.attempted);
        assert!(restored.record.cold_start);
        assert_eq!(restored.record.fallbacks.len(), 1);
    }

    #[test]
    fn truncated_snapshot_cold_starts_with_recovery_record() {
        let path = tmp_path("truncated");
        save_snapshot(&path, &[("k".to_string(), sample_payload(10.0))], &[]).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let restored = load_snapshot(&path);
        assert!(restored.record.attempted);
        assert!(restored.record.cold_start);
        assert!(restored.exact.is_empty());
        assert!(!restored.record.fallbacks.is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn flipped_payload_bit_drops_only_that_entry() {
        let path = tmp_path("poisoned");
        let exact = vec![
            ("clean".to_string(), sample_payload(10.0)),
            ("dirty".to_string(), sample_payload(20.0)),
        ];
        save_snapshot(&path, &exact, &[]).unwrap();
        // Corrupt the *body* value but re-seal the file, so the document
        // checksum passes and only the per-entry seal can catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        let body = codec::unseal(&text).unwrap();
        let tampered = body.replacen("\"actual_total\":20", "\"actual_total\":21", 1);
        assert_ne!(body, tampered, "fixture must actually change a payload");
        std::fs::write(&path, codec::seal(&tampered)).unwrap();
        let restored = load_snapshot(&path);
        assert_eq!(restored.record.restored_exact, 1);
        assert_eq!(restored.exact[0].0, "clean");
        assert!(restored
            .record
            .fallbacks
            .iter()
            .any(|f| f.contains("seal mismatch")));
        std::fs::remove_file(&path).unwrap();
    }

    /// Seeded mutation fuzz of restore: a valid snapshot damaged in the
    /// sealed file, or in the body and then re-sealed so the per-entry
    /// layers see it. Every load returns, never panics; restores and cold
    /// starts both happen; whatever is restored is what was saved.
    #[test]
    fn mutated_snapshots_restore_or_cold_start_never_panic() {
        let path = tmp_path("fuzz");
        let exact = vec![
            ("k1".to_string(), sample_payload(152.5)),
            ("k2".to_string(), sample_payload(97.0)),
        ];
        save_snapshot(&path, &exact, &[sample_fit_entry()]).unwrap();
        let sealed = std::fs::read_to_string(&path).unwrap();
        let body = codec::unseal(&sealed).unwrap().to_string();
        let saved: Vec<String> = exact.iter().map(|(_, p)| p.fingerprint()).collect();

        let mut rng = crate::loadmix::Lcg(0x5EED_5A4E);
        let mut outcomes = [0usize; 2]; // restored, cold start
        for case in 0..1500 {
            let reseal = case % 2 == 1;
            let mut bytes = if reseal { body.clone() } else { sealed.clone() }.into_bytes();
            rng.mutate(&mut bytes, crate::loadmix::JSON_PIECES);
            if reseal {
                bytes = codec::seal(&String::from_utf8_lossy(&bytes)).into_bytes();
            }
            std::fs::write(&path, &bytes).unwrap();
            let snap = load_snapshot(&path);
            assert!(snap.record.attempted);
            outcomes[usize::from(snap.record.cold_start)] += 1;
            for (key, payload) in &snap.exact {
                assert!(
                    saved.contains(&payload.fingerprint()),
                    "case {case}: {key:?} restored a payload that was never saved"
                );
            }
        }
        std::fs::remove_file(&path).unwrap();
        assert!(
            outcomes.iter().all(|&n| n > 100),
            "restored/cold {outcomes:?}"
        );
    }

    #[test]
    fn wrong_schema_cold_starts() {
        let path = tmp_path("schema");
        let body = "{\"schema\":\"hslb-cache-snapshot/v0\",\"exact\":[],\"fits\":[]}";
        std::fs::write(&path, codec::seal(body)).unwrap();
        let restored = load_snapshot(&path);
        assert!(restored.record.cold_start);
        assert!(restored.record.fallbacks[0].contains("unsupported snapshot schema"));
        std::fs::remove_file(&path).unwrap();
    }
}
