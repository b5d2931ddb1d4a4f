//! Property tests for the textual artifacts: the timing archive and the
//! PES XML must round-trip arbitrary valid inputs and reject junk without
//! panicking.

use hslb_cesm::timers::TimingFile;
use hslb_cesm::{archive, pes, Allocation, BenchPoint, Component, Layout, Machine, Simulator};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_component() -> impl Strategy<Value = Component> {
    prop::sample::select(Component::OPTIMIZED.to_vec())
}

fn arb_points() -> impl Strategy<Value = Vec<BenchPoint>> {
    prop::collection::vec(
        (arb_component(), 1i64..50_000, 0.001f64..100_000.0).prop_map(
            |(component, nodes, seconds)| BenchPoint {
                component,
                nodes,
                // Keep 6-decimal archive precision exact.
                seconds: (seconds * 1e6).round() / 1e6,
            },
        ),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn archive_round_trips_arbitrary_points(points in arb_points(),
                                            note in "[ -~]{0,60}") {
        let text = archive::write_archive(&points, Some(&note));
        let report = archive::read_archive(&text).unwrap();
        prop_assert!(report.is_clean(), "clean archive reported skips: {:?}", report.skipped);
        let back = report.parsed;
        prop_assert_eq!(back.len(), points.len());
        // Same multiset (the writer sorts).
        for p in &points {
            prop_assert!(back.contains(p), "{p:?} lost in round-trip");
        }
    }

    #[test]
    fn archive_parser_never_panics_on_junk(junk in "[ -~\n]{0,200}") {
        let _ = archive::read_archive(&junk); // must not panic
    }

    #[test]
    fn pes_round_trips_valid_hybrid_allocations(ocn in 1i64..1000,
                                                atm in 2i64..2000,
                                                ice_frac in 0.1f64..0.9) {
        let ice = ((atm as f64 * ice_frac) as i64).max(1);
        let lnd = (atm - ice).max(1);
        let alloc = Allocation { lnd, ice: ice.min(atm - 1), atm, ocn };
        prop_assume!(alloc.ice + alloc.lnd <= alloc.atm);
        prop_assume!(alloc.atm + alloc.ocn <= Machine::intrepid().nodes);
        let layout = pes::build(&Machine::intrepid(), Layout::Hybrid, &alloc).unwrap();
        let xml = layout.to_xml();
        let back = pes::PesLayout::from_xml(&xml).unwrap();
        prop_assert_eq!(back.total_tasks, layout.total_tasks);
        for e in &layout.entries {
            prop_assert_eq!(back.entry(e.component), Some(e));
        }
        // Structural invariants of the hybrid placement.
        let ocn_e = layout.entry(Component::Ocn).unwrap();
        let atm_e = layout.entry(Component::Atm).unwrap();
        prop_assert_eq!(ocn_e.rootpe, 0);
        prop_assert_eq!(atm_e.rootpe, ocn_e.ntasks);
    }

    #[test]
    fn pes_parser_never_panics_on_junk(junk in "[ -~\n\"<>=/]{0,300}") {
        let _ = pes::PesLayout::from_xml(&junk); // must not panic
    }

    #[test]
    fn timing_file_parser_never_panics(junk in "[ -~\n:]{0,300}") {
        let _ = hslb_cesm::timers::TimingFile::parse(&junk); // must not panic
    }
}

/// Zero to two byte-level mutations — a truncation, a bit flip, or 1–200
/// copies of a text piece spliced in — the damage model of the service's
/// decoder fuzz tests.
fn mutate(rng: &mut StdRng, text: &str) -> String {
    const PIECES: [&str; 7] = ["\n", " ", "#", "atm 1 ", "-", "e999", "NaN"];
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..rng.gen_range(0..3usize) {
        let at = rng.gen_range(0..bytes.len().max(1));
        match rng.gen_range(0..3u32) {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            _ => {
                let piece =
                    PIECES[rng.gen_range(0..PIECES.len())].repeat(rng.gen_range(1..201usize));
                bytes.splice(at..at, piece.into_bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Mutated valid archives and timing files parse or are refused, never
/// panic, and both outcomes happen for each. An archive that parses
/// accounts for every data line and keeps only in-range points.
#[test]
fn mutated_archives_and_timing_files_never_panic() {
    let points: Vec<BenchPoint> = Component::OPTIMIZED
        .iter()
        .flat_map(|&component| {
            [(24, 362.669), (104, 306.952), (1664, 61.987)].map(|(nodes, seconds)| BenchPoint {
                component,
                nodes,
                seconds,
            })
        })
        .collect();
    let archive_text = archive::write_archive(&points, Some("resolution: 1deg"));
    let hybrid_128 = Allocation::from_table_order([24, 80, 104, 24]);
    let run = Simulator::one_degree(5).run_case(&hybrid_128, Layout::Hybrid, 0);
    let timing_text = TimingFile::from_run("b40.1deg.128", &run.unwrap()).render();

    let mut rng = StdRng::seed_from_u64(0x5EED_A4C1);
    let (mut archives, mut timings) = ([0usize; 2], [0usize; 2]);
    for _ in 0..3000 {
        let text = mutate(&mut rng, &archive_text);
        let parsed = archive::read_archive(&text);
        archives[usize::from(parsed.is_ok())] += 1;
        if let Ok(report) = parsed {
            let data_lines = text
                .lines()
                .skip(1)
                .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
                .count();
            assert_eq!(report.parsed.len() + report.skipped.len(), data_lines);
            for p in &report.parsed {
                assert!(
                    p.nodes >= 1 && p.seconds.is_finite() && p.seconds >= 0.0,
                    "{p:?}"
                );
            }
        }
        let text = mutate(&mut rng, &timing_text);
        timings[usize::from(TimingFile::parse(&text).is_ok())] += 1;
    }
    assert!(
        archives.iter().chain(&timings).all(|&n| n > 100),
        "archive err/ok {archives:?}, timing file err/ok {timings:?}"
    );
}
