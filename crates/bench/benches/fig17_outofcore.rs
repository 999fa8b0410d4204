//! Fig. 17 (repo extension) — out-of-core model construction.
//!
//! Builds the full model (AFCLST + SYMEX+ + SCAPE index) twice over the
//! same long-series dataset:
//!
//! 1. **resident** — the classical path over an in-memory `DataMatrix`;
//! 2. **streamed** — through a [`CachedStore`] holding only a small,
//!    fixed number of columns (the cache budget), with the matrix on
//!    disk and dropped from memory.
//!
//! A counting global allocator tracks the **peak live heap** of each
//! phase; the point of the figure is that the streamed peak is bounded
//! by the cache budget plus model size — *not* by `n·m` — while the
//! produced model is asserted bit-for-bit identical to the resident
//! one. The dataset shape is deliberately long (`m ≫ n`): the matrix
//! dwarfs the model, which is the regime where out-of-core matters.
//!
//! A third section measures the **cold-read** regime the OS page cache
//! hides on a developer box: the store is wrapped in a latency-injecting
//! [`SlowSource`] (per-request delay, `AFFINITY_LATENCY_US`, default
//! 2500 — a contended spinning disk or a networked store) and the
//! streamed build runs best of three attempts against host steal-time
//! noise. The cold section uses its own dataset shape (many, shorter
//! columns) because that is the regime where per-request latency — not
//! per-sample arithmetic — dominates the build. With the delay standing
//! in for seek-dominated media, each cache miss reads the announced
//! columns after it in the same region request, so the read-request
//! count and the build time are the headline numbers; the build is
//! asserted bit-identical to a resident build of the same data.
//! `AFFINITY_LATENCY_US=0` skips the section; `AFFINITY_CACHE_COLS`
//! overrides the cache budget (CI runs a starved 2-column config).
//!
//! Set `AFFINITY_BENCH_JSON=<path>` to write the measurements as a JSON
//! baseline (CI uploads `BENCH_outofcore.json`).

use affinity_bench::{fmt_secs, header, time, Scale};
use affinity_core::symex::{AffineSet, Symex};
use affinity_data::generator::{sensor_dataset, SensorConfig};
use affinity_data::slow::SlowSource;
use affinity_data::ColumnRead;
use affinity_par::ThreadPool;
use affinity_scape::ScapeIndex;
use affinity_storage::{CacheStats, CachedStore, MatrixStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Counting allocator: live bytes + high-water mark, resettable between
/// phases. Counts every allocation in the process, so a phase's peak is
/// its true heap footprint (model, caches, scratch — everything).
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn note_alloc(size: usize) {
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: pure pass-through to `System`; the only additions are relaxed
// atomic counters, which never touch the allocation itself.
unsafe impl GlobalAlloc for PeakAlloc {
    // SAFETY: forwards the layout untouched to `System.alloc`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: forwards ptr/layout untouched to `System.dealloc`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    // SAFETY: forwards the layout untouched to `System.alloc_zeroed`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    // SAFETY: forwards all arguments untouched to `System.realloc`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Reset the high-water mark to the current live bytes.
fn reset_peak() {
    // afflint: allow(relaxed) -- bench-only peak tracker: the counter is a heuristic high-water mark, no memory is published through this store
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// `VmHWM` (peak resident set of the whole process) in kB, if readable.
/// Monotonic over the process lifetime — reported for context only; the
/// per-phase comparison uses the resettable heap counter above.
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

struct Phase {
    secs: f64,
    peak_heap: usize,
}

fn build_resident(data: &affinity_data::DataMatrix, symex: &Symex) -> (AffineSet, ScapeIndex) {
    let affine = symex.run(data).expect("resident symex");
    let index = ScapeIndex::build(data, &affine, &affinity_core::measures::Measure::ALL)
        .expect("resident index");
    (affine, index)
}

fn build_streamed<B: ColumnRead>(
    source: &CachedStore<B>,
    symex: &Symex,
) -> (AffineSet, ScapeIndex) {
    let affine = symex.run(source).expect("streamed symex");
    let index = ScapeIndex::build_from_source(
        source,
        &affine,
        &affinity_core::measures::Measure::ALL,
        &ThreadPool::new(affinity_bench::threads_from_env()),
    )
    .expect("streamed index");
    (affine, index)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn assert_same_model(
    resident_affine: &AffineSet,
    resident_index: &ScapeIndex,
    affine: &AffineSet,
    index: &ScapeIndex,
    what: &str,
) {
    assert_eq!(
        resident_affine.relationships(),
        affine.relationships(),
        "{what}: relationships must be bit-identical"
    );
    assert_eq!(
        resident_affine.series_relationships(),
        affine.series_relationships(),
        "{what}"
    );
    assert_eq!(resident_affine.pivots(), affine.pivots(), "{what}");
    assert_eq!(resident_index.stats(), index.stats(), "{what}");
}

fn main() {
    let scale = Scale::from_env();
    header(
        "Fig. 17",
        "out-of-core model construction: peak memory bounded by the cache budget",
        scale,
    );
    // Long-series shapes: the matrix (n·m·8 bytes) dwarfs the O(n²)
    // model, which is the out-of-core regime.
    let (n, m) = match scale {
        Scale::Quick => (32, 16_000),
        Scale::Mid => (48, 60_000),
        Scale::Full => (96, 250_000),
    };
    let cache_cols = env_usize("AFFINITY_CACHE_COLS", (n / 8).max(4));
    let matrix_bytes = n * m * 8;
    let cache_bytes = cache_cols * m * 8;
    println!(
        "dataset: {n} series x {m} samples = {:.1} MB; cache budget: {cache_cols} columns = {:.1} MB\n",
        mb(matrix_bytes),
        mb(cache_bytes)
    );

    let dir = std::env::temp_dir().join("affinity-fig17");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("outofcore-{}.afn", std::process::id()));

    let symex = affinity_bench::default_symex();

    // --- Resident phase -------------------------------------------------
    let data = sensor_dataset(&SensorConfig::reduced(n, m));
    MatrixStore::create(&path, &data).expect("write store");
    reset_peak();
    let ((resident_affine, resident_index), resident_secs) = time(|| build_resident(&data, &symex));
    let resident = Phase {
        secs: resident_secs,
        peak_heap: peak_bytes(),
    };
    drop(data);

    // --- Streamed phase -------------------------------------------------
    let source = CachedStore::new(MatrixStore::open(&path).expect("open store"), cache_cols);
    reset_peak();
    let ((streamed_affine, streamed_index), streamed_secs) =
        time(|| build_streamed(&source, &symex));
    let streamed = Phase {
        secs: streamed_secs,
        peak_heap: peak_bytes(),
    };
    let cache_stats = source.stats();
    drop(source);

    // --- Equivalence (the whole point: same model, bounded memory) ------
    assert_same_model(
        &resident_affine,
        &resident_index,
        &streamed_affine,
        &streamed_index,
        "streamed",
    );
    drop((streamed_affine, streamed_index));

    // The resident peak necessarily carries the matrix; the streamed
    // peak must not scale with it.
    assert!(
        resident.peak_heap >= matrix_bytes,
        "resident peak {} below the matrix itself {}",
        resident.peak_heap,
        matrix_bytes
    );
    if scale != Scale::Quick {
        assert!(
            streamed.peak_heap < matrix_bytes,
            "streamed peak {:.1} MB is not below the {:.1} MB matrix — out-of-core regression",
            mb(streamed.peak_heap),
            mb(matrix_bytes)
        );
    }
    // The long-series model and SYMEX are no longer needed; free them
    // so the cold section's heap floor is its own models only (the
    // SYMEX pool lanes keep thread-local column buffers sized for `m`).
    drop((resident_affine, resident_index));
    drop(symex);
    let symex = affinity_bench::default_symex();

    // --- Cold-read section: injected latency -----------------------------
    // The OS page cache serves the store reads above from RAM, which
    // hides exactly the latency readahead amortizes; a per-read sleep
    // stands in for seek-dominated media. The section runs its own
    // dataset *shape* — many short columns — because that is the regime
    // where per-request latency (not per-sample arithmetic) dominates
    // the build; the long-series dataset above answers the memory-bound
    // question, this one the I/O-scheduling question. 2.5 ms per
    // request models a contended spinning disk or a networked store.
    let latency_us = env_usize("AFFINITY_LATENCY_US", 2500);
    let (default_cold_n, default_cold_m) = match scale {
        Scale::Quick => (48, 3_000),
        Scale::Mid => (96, 10_000),
        Scale::Full => (192, 25_000),
    };
    let cold_n = env_usize("AFFINITY_COLD_SERIES", default_cold_n);
    let cold_m = env_usize("AFFINITY_COLD_SAMPLES", default_cold_m);
    // A sixth of the columns: room for full readahead spans while the
    // budget stays well under the matrix (the assertion below).
    let cold_cache_cols = env_usize("AFFINITY_CACHE_COLS", (cold_n / 6).max(8));
    let cold_matrix_bytes = cold_n * cold_m * 8;
    let cold = (latency_us > 0).then(|| {
        let delay = Duration::from_micros(latency_us as u64);
        let cold_path = dir.join(format!("outofcore-cold-{}.afn", std::process::id()));
        let cold_data = sensor_dataset(&SensorConfig::reduced(cold_n, cold_m));
        MatrixStore::create(&cold_path, &cold_data).expect("write cold store");
        let (cold_affine, cold_index) = build_resident(&cold_data, &symex);
        drop(cold_data);
        // Best of 3: the wall clock of a sleep-heavy phase is at the
        // mercy of host steal time on shared boxes; the min of a few
        // runs is robust against an intermittent burst while still
        // honest (a burst can only inflate, never deflate).
        let mut best: Option<(Phase, CacheStats, u64)> = None;
        for _attempt in 0..3 {
            let slow = SlowSource::new(MatrixStore::open(&cold_path).expect("open store"), delay);
            let source = CachedStore::new(slow, cold_cache_cols);
            reset_peak();
            let ((affine, index), secs) = time(|| build_streamed(&source, &symex));
            let phase = Phase {
                secs,
                peak_heap: peak_bytes(),
            };
            assert_same_model(&cold_affine, &cold_index, &affine, &index, "cold");
            // As for the long-series phases: at quick scale the O(n²)
            // model rivals the deliberately tiny matrix, so the bound
            // is only meaningful at mid/full.
            if scale != Scale::Quick {
                assert!(
                    phase.peak_heap < cold_matrix_bytes,
                    "cold streamed peak {:.1} MB exceeds the {:.1} MB matrix",
                    mb(phase.peak_heap),
                    mb(cold_matrix_bytes)
                );
            }
            let stats = source.stats();
            let reads = source.store().reads();
            if best.as_ref().is_none_or(|(b, _, _)| phase.secs < b.secs) {
                best = Some((phase, stats, reads));
            }
        }
        std::fs::remove_file(&cold_path).ok();
        best.expect("three attempts ran")
    });
    std::fs::remove_file(&path).ok();

    println!(
        "{:>22} {:>12} {:>16} {:>16}",
        "path", "build", "peak heap", "vs matrix"
    );
    let mut rows: Vec<(String, &Phase)> = vec![
        ("resident".into(), &resident),
        ("streamed (page cache)".into(), &streamed),
    ];
    if let Some((phase, _, _)) = &cold {
        rows.push(("cold (injected latency)".into(), phase));
    }
    for (name, phase) in rows {
        println!(
            "{name:>22} {:>12} {:>13.1} MB {:>15.2}x",
            fmt_secs(phase.secs),
            mb(phase.peak_heap),
            phase.peak_heap as f64 / matrix_bytes as f64
        );
    }
    println!(
        "\nwarm cache: {} hits, {} misses, {} evictions, {} bypasses ({:.1}% hit rate)",
        cache_stats.hits,
        cache_stats.misses,
        cache_stats.evictions,
        cache_stats.bypasses,
        100.0 * cache_stats.hits as f64 / (cache_stats.hits + cache_stats.misses).max(1) as f64
    );
    if let Some((phase, stats, reads)) = &cold {
        println!(
            "cold reads: {cold_n} series x {cold_m} samples ({:.1} MB), {latency_us} us per read \
             request, {cold_cache_cols} columns cached",
            mb(cold_matrix_bytes)
        );
        println!(
            "  {} build, {reads} read requests; cache {} hits / {} misses; \
             readahead issued {} (hits {}, wasted {})",
            fmt_secs(phase.secs),
            stats.hits,
            stats.misses,
            stats.prefetch.issued,
            stats.prefetch.hits,
            stats.prefetch.wasted
        );
    }
    if let Some(hwm) = vm_hwm_kb() {
        println!(
            "process VmHWM (monotonic, all phases): {:.1} MB",
            hwm as f64 / 1024.0
        );
    }
    println!("\nstreamed == resident: bit-for-bit (asserted, every variant)");

    if let Ok(out) = std::env::var("AFFINITY_BENCH_JSON") {
        let json = to_json(
            scale,
            n,
            m,
            matrix_bytes,
            cache_cols,
            cache_bytes,
            &resident,
            &streamed,
            &cache_stats,
            latency_us,
            (cold_n, cold_m, cold_cache_cols),
            cold.as_ref(),
        );
        std::fs::write(&out, json).expect("write bench JSON");
        println!("wrote baseline to {out}");
    }
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    scale: Scale,
    n: usize,
    m: usize,
    matrix_bytes: usize,
    cache_cols: usize,
    cache_bytes: usize,
    resident: &Phase,
    streamed: &Phase,
    cache: &CacheStats,
    latency_us: usize,
    cold_shape: (usize, usize, usize),
    cold: Option<&(Phase, CacheStats, u64)>,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"bench\": \"fig17_outofcore\",");
    let _ = writeln!(
        s,
        "  \"scale\": \"{}\",",
        scale.tag().split(' ').next().expect("tag")
    );
    let _ = writeln!(
        s,
        "  \"hardware_threads\": {},",
        affinity_par::resolve_threads(0)
    );
    let _ = writeln!(s, "  \"series\": {n},");
    let _ = writeln!(s, "  \"samples\": {m},");
    let _ = writeln!(s, "  \"matrix_bytes\": {matrix_bytes},");
    let _ = writeln!(s, "  \"cache_columns\": {cache_cols},");
    let _ = writeln!(s, "  \"cache_budget_bytes\": {cache_bytes},");
    let _ = writeln!(
        s,
        "  \"resident\": {{\"build_secs\": {:.6}, \"peak_heap_bytes\": {}}},",
        resident.secs, resident.peak_heap
    );
    let _ = writeln!(
        s,
        "  \"streamed\": {{\"build_secs\": {:.6}, \"peak_heap_bytes\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"cache_evictions\": {}}},",
        streamed.secs, streamed.peak_heap, cache.hits, cache.misses, cache.evictions
    );
    let _ = writeln!(
        s,
        "  \"streamed_peak_over_matrix\": {:.4},",
        streamed.peak_heap as f64 / matrix_bytes as f64
    );
    if let Some((phase, stats, reads)) = cold {
        let (cold_n, cold_m, cold_cache_cols) = cold_shape;
        let _ = writeln!(s, "  \"cold_latency_us\": {latency_us},");
        let _ = writeln!(s, "  \"cold_series\": {cold_n},");
        let _ = writeln!(s, "  \"cold_samples\": {cold_m},");
        let _ = writeln!(s, "  \"cold_cache_columns\": {cold_cache_cols},");
        let _ = writeln!(
            s,
            "  \"cold\": {{\"build_secs\": {:.6}, \"peak_heap_bytes\": {}, \"read_requests\": {reads}, \"cache_hits\": {}, \"cache_misses\": {}, \"prefetch_issued\": {}, \"prefetch_hits\": {}, \"prefetch_wasted\": {}}},",
            phase.secs,
            phase.peak_heap,
            stats.hits,
            stats.misses,
            stats.prefetch.issued,
            stats.prefetch.hits,
            stats.prefetch.wasted
        );
    }
    let _ = writeln!(s, "  \"bit_identical\": true");
    let _ = writeln!(s, "}}");
    s
}
