//! A served request leaves nothing behind: the service's resident size
//! follows from its options, not from how many distinct questions it has
//! been asked.
//!
//! One test in its own binary, so no neighbour shares the process whose
//! `VmRSS` it reads. The service used to memoize one `Simulator` per
//! distinct client-chosen seed, with no capacity and no eviction: 15 KB
//! per 1° seed, ~6.6 MB over the stretch measured here.

use hslb_cesm::Resolution;
use hslb_service::{reference_response, CacheTier, ServiceOptions, TuneRequest, TuningService};

/// Resident set size of this process in KB (`None` where `/proc` is not
/// mounted).
fn vm_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn distinct_seeds_do_not_grow_the_server() {
    const SEEDS: u64 = 600;
    // Past both tiers' warm-up on this traffic: the fit tier (64) is full
    // and has been evicting since request 64; the exact tier (256) still
    // has ~100 small payloads to take in, which is part of the allowance.
    const SETTLED: u64 = 150;
    // The memo grew 450 x 15 KB = ~6.6 MB from SETTLED to SEEDS. What is
    // left is allocator noise and the exact tier filling up.
    const ALLOWED_GROWTH_KB: u64 = 2 * 1024;

    let opts = ServiceOptions::default();
    let (exact_capacity, fit_capacity) = (opts.exact_capacity, opts.fit_capacity);
    let service = TuningService::start(opts);

    let request = |seed: u64| TuneRequest {
        seed,
        ..TuneRequest::new(seed, Resolution::OneDegree, 64)
    };
    let mut fingerprints = Vec::with_capacity(SEEDS as usize);
    let mut rss_settled = None;
    for seed in 1..=SEEDS {
        let response = service
            .submit(request(seed))
            .expect("one request at a time fits the queue")
            .wait()
            .expect("pipeline succeeds");
        assert_eq!(response.tier, CacheTier::Miss, "seed {seed} is new");
        fingerprints.push(response.payload.fingerprint());
        if seed == SETTLED {
            rss_settled = vm_rss_kb();
        }
    }
    let rss_end = vm_rss_kb();

    let stats = service.stats();
    assert!(stats.exact_entries <= exact_capacity, "{stats:?}");
    assert!(stats.fit_entries <= fit_capacity, "{stats:?}");
    assert_eq!(stats.completed, SEEDS);
    service.shutdown();

    match (rss_settled, rss_end) {
        (Some(settled), Some(end)) => {
            let grew = end.saturating_sub(settled);
            println!("VmRSS after {SETTLED} seeds {settled} KB, after {SEEDS} {end} KB");
            assert!(
                grew < ALLOWED_GROWTH_KB,
                "resident size grew {grew} KB over {} distinct seeds ({settled} -> {end} KB)",
                SEEDS - SETTLED
            );
        }
        _ => println!("skipped the VmRSS bound: /proc/self/status is not readable here"),
    }

    // The references run last so their heap traffic is not in the figure.
    for (seed, fingerprint) in (1..=SEEDS).zip(&fingerprints) {
        let reference = reference_response(&request(seed)).expect("reference");
        assert_eq!(fingerprint, &reference.fingerprint(), "seed {seed}");
    }
}
