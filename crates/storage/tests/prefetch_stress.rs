//! Randomized concurrency stress for [`CachedStore`]'s miss-path
//! readahead: consumer reads (whose misses read announced spans),
//! pins/unpins, and prefetch announcements race each other across
//! threads over a latency-injecting backing, asserting the three
//! invariants the design promises:
//!
//! 1. **No pinned-column eviction** — once a pin has loaded a column,
//!    the backing store sees no further read of it until the unpin
//!    (observed through the [`SlowSource`] per-column read counters,
//!    which are race-free observables, unlike the global hit/miss
//!    counters other lanes mutate concurrently).
//! 2. **No double decode** — two readers (a pin, a single-column miss
//!    or another lane's span) never fetch the same column from the
//!    backing at the same time; the in-flight registry makes the
//!    second one wait. Observed by the [`SlowSource`] same-column
//!    overlap detector.
//! 3. **Stats consistency** — every fetch is byte-correct and
//!    classified, and once the lanes have joined the readahead ledger
//!    balances: `issued == hits + wasted + still-resident-unconsumed`.

use affinity_data::generator::{sensor_dataset, SensorConfig};
use affinity_data::slow::SlowSource;
use affinity_data::{DataMatrix, SeriesSource};
use affinity_storage::CachedStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

type StressCache = CachedStore<SlowSource<DataMatrix>>;

/// Shared body of the two timing regimes below. Capacity and pin
/// pressure are chosen so a pin can always be admitted (at most 4 of
/// the 5 slots are ever pinned at once), keeping the pin-residency
/// invariant unconditional.
fn run_races(cached: &StressCache, data: &DataMatrix, n: usize, reads: &AtomicU64) {
    std::thread::scope(|s| {
        // Lane 0: pin a column, verify the backing never sees it again
        // until the unpin, release, repeat elsewhere.
        s.spawn(|| {
            let mut buf = Vec::new();
            let mut rng = StdRng::seed_from_u64(0xA11);
            for round in 0..40 {
                let p = rng.gen_range(0..n);
                cached.pin(p);
                let loads_at_pin = cached.store().reads_of(p);
                for _ in 0..20 {
                    let got = cached.read_into(p, &mut buf).unwrap();
                    assert!(bits_eq(got, data.series(p)), "round {round}: pinned data");
                    reads.fetch_add(1, Ordering::Relaxed);
                    std::thread::yield_now();
                }
                assert_eq!(
                    cached.store().reads_of(p),
                    loads_at_pin,
                    "round {round}: pinned column {p} went back to the backing"
                );
                cached.unpin(p);
            }
        });
        // Lanes 1..4: random reads + ascending announcements (the shape
        // the kernels announce) + transient pins, all racing each
        // other's spans.
        for lane in 1..4u64 {
            s.spawn(move || {
                let mut buf = Vec::new();
                let mut rng = StdRng::seed_from_u64(lane * 7919);
                for _ in 0..400 {
                    match rng.gen_range(0..10) {
                        0 | 1 => {
                            let start = rng.gen_range(0..n as u32);
                            let len = rng.gen_range(1..8u32).min(n as u32 - start);
                            let seq: Vec<u32> = (start..start + len).collect();
                            cached.prefetch(&seq);
                        }
                        2 => {
                            let p = rng.gen_range(0..n);
                            cached.pin(p);
                            let loads_at_pin = cached.store().reads_of(p);
                            let got = cached.read_into(p, &mut buf).unwrap();
                            assert!(bits_eq(got, data.series(p)));
                            assert_eq!(cached.store().reads_of(p), loads_at_pin);
                            reads.fetch_add(1, Ordering::Relaxed);
                            cached.unpin(p);
                        }
                        _ => {
                            let v = rng.gen_range(0..n);
                            let got = cached.read_into(v, &mut buf).unwrap();
                            assert!(bits_eq(got, data.series(v)), "column {v}");
                            reads.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
}

/// Called once every lane has joined: nothing is in flight.
fn check_ledger(cached: &StressCache, reads: &AtomicU64) {
    let stats = cached.stats();
    // Every read_into was classified hit-or-miss exactly once; pins
    // that had to load also count one miss each, hence `>=`.
    assert!(
        stats.hits + stats.misses >= reads.load(Ordering::Relaxed),
        "fetch classification lost reads: {stats:?}"
    );
    // The readahead ledger balances.
    assert_eq!(
        stats.prefetch.issued,
        stats.prefetch.hits + stats.prefetch.wasted + cached.prefetched_unconsumed() as u64,
        "prefetch ledger: {stats:?}"
    );
    // The in-flight registry prevented every double decode.
    assert!(
        !cached.store().same_column_overlap(),
        "two concurrent reads of the same column reached the backing"
    );
}

/// Latency regime: a 50 µs per-request delay widens every race window
/// (a fetch is slow relative to the bookkeeping), so a lane's span is
/// usually mid-read when other lanes arrive.
#[test]
fn randomized_prefetch_races_with_latency() {
    let n = 24;
    let data = sensor_dataset(&SensorConfig::reduced(n, 64));
    let slow = SlowSource::new(data.clone(), Duration::from_micros(50));
    let cached = CachedStore::new(slow, 5);
    let reads = AtomicU64::new(0);
    run_races(&cached, &data, n, &reads);
    check_ledger(&cached, &reads);
    let stats = cached.stats();
    assert!(
        stats.prefetch.issued > 0,
        "announcements must have driven spans: {stats:?}"
    );
}

/// Zero-delay regime: reads finish before the bookkeeping races widen,
/// exercising the opposite interleavings (stale plan entries, spans
/// cut short by columns other lanes just admitted or claimed).
#[test]
fn randomized_prefetch_races_without_latency() {
    let n = 24;
    let data = sensor_dataset(&SensorConfig::reduced(n, 64));
    let slow = SlowSource::new(data.clone(), Duration::ZERO);
    let cached = CachedStore::new(slow, 5);
    let reads = AtomicU64::new(0);
    run_races(&cached, &data, n, &reads);
    check_ledger(&cached, &reads);
}

/// The pinned-residency invariant under direct adversarial pressure:
/// the main thread holds two pins while a second thread announces the
/// whole store and reads randomly, forcing constant span reads and
/// eviction traffic through the remaining four slots.
#[test]
fn pins_always_survive_prefetch_pressure() {
    let n = 20;
    let data = sensor_dataset(&SensorConfig::reduced(n, 48));
    let slow = SlowSource::new(data.clone(), Duration::from_micros(20));
    let cached = CachedStore::new(slow, 6);
    let mut buf = Vec::new();
    cached.pin(3);
    cached.pin(7);
    let loads = [cached.store().reads_of(3), cached.store().reads_of(7)];
    std::thread::scope(|s| {
        let cached = &cached;
        s.spawn(move || {
            let all: Vec<u32> = (0..n as u32).collect();
            let mut buf = Vec::new();
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..300 {
                cached.prefetch(&all);
                let v = rng.gen_range(0..n);
                cached.read_into(v, &mut buf).unwrap();
            }
        });
        // Meanwhile the pinned columns must never leave memory.
        for _ in 0..300 {
            for (p, at_pin) in [3usize, 7].into_iter().zip(loads) {
                let got = cached.read_into(p, &mut buf).unwrap();
                assert!(bits_eq(got, data.series(p)));
                assert_eq!(
                    cached.store().reads_of(p),
                    at_pin,
                    "pinned column {p} was evicted"
                );
            }
        }
    });
    cached.unpin(3);
    cached.unpin(7);
    assert!(!cached.store().same_column_overlap());
    let stats = cached.stats();
    assert!(stats.prefetch.issued > 0, "{stats:?}");
    assert_eq!(
        stats.prefetch.issued,
        stats.prefetch.hits + stats.prefetch.wasted + cached.prefetched_unconsumed() as u64,
        "prefetch ledger: {stats:?}"
    );
}
