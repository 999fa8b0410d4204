//! A bounded-memory column cache over any [`ColumnRead`] backing.
//!
//! [`CachedStore`] is the out-of-core middle ground between a fully
//! resident [`DataMatrix`](affinity_data::DataMatrix) and raw per-fetch
//! disk reads: it keeps at most `capacity` recently used columns in
//! memory (LRU), **reusing the evicted column's buffer** for the
//! incoming one, so steady-state misses cost one disk read plus one
//! memcpy and zero allocations. Pivot columns — fetched once per
//! sequence pair during the SYMEX fit phase — can be *pinned* so the
//! sweep over member columns never evicts them.
//!
//! Reads happen outside the cache lock, so parallel lanes fetch
//! distinct columns from disk concurrently; the lock is held only for
//! the in-memory bookkeeping and memcpys. Concurrent fetches of the
//! *same* column are deduplicated: the second reader waits for the
//! first instead of decoding the column twice.
//!
//! ## Readahead on the miss
//!
//! The model-construction passes announce their upcoming column
//! sequence through [`SeriesSource::prefetch`]; the cache records the
//! announced, uncached columns in a bounded plan set. A consumer miss
//! on column `v` then extends its own read forward over planned
//! columns (bridging short runs of unannounced ones) and
//! fetches the whole span with **one**
//! [`ColumnRead::read_column_range`] request — on seek-dominated media
//! about the cost of `v` alone. `v` goes to the caller; the rest are
//! admitted marked `prefetched`, and [`PrefetchStats`] (inside
//! [`CacheStats`]) counts how many were later touched or evicted
//! unread. A span holds at most `min(MAX_SPAN, unpinned slots / 2)`
//! columns, so readahead can never flush the cache.
//!
//! The backing is any [`ColumnRead`]: the on-disk [`MatrixStore`] in
//! production, or e.g. a latency-injecting
//! [`SlowSource`](affinity_data::slow::SlowSource) in I/O-overlap
//! experiments.

use crate::store::MatrixStore;
use affinity_data::source::PREFETCH_WINDOW;
use affinity_data::{ColumnRead, SeriesSource, SourceError};
use std::collections::{HashMap, HashSet};
use std::sync::{Condvar, Mutex, MutexGuard};

/// Most columns one miss reads: bounds the span's single region
/// request (and the lock-held admissions that follow it).
const MAX_SPAN: usize = 8;

/// A span bridges runs of up to this many unannounced columns between
/// announced ones: a fragmented announcement (e.g. an AFCLST power pass
/// visiting only the active clusters' members) is still fetched as one
/// contiguous request. On seek-dominated media the extra contiguous
/// bytes are nearly free, while splitting the span would pay the
/// per-request latency per fragment.
const MAX_SPAN_GAP: usize = 8;

/// Plan entries per cache slot: the plan set holds
/// `PLAN_PER_SLOT · capacity` columns (at least one announcement
/// window), and an announcement that would overflow it clears it.
const PLAN_PER_SLOT: usize = 8;

/// Counters of the miss-path readahead, nested inside [`CacheStats`].
/// `issued == hits + wasted +`
/// [`CachedStore::prefetched_unconsumed`] holds whenever no read is in
/// flight.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Span columns beyond the missed one fetched from the backing.
    pub issued: u64,
    /// Consumer fetches (or pins) served by a readahead column's first
    /// touch — reads that would otherwise have gone to disk.
    pub hits: u64,
    /// Readahead columns thrown away untouched (evicted first, already
    /// cached, or not admittable because every slot was pinned).
    pub wasted: u64,
}

/// Hit/miss counters of a [`CachedStore`], for benchmarks and tuning.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fetches served from memory.
    pub hits: u64,
    /// Fetches that went to the backing store.
    pub misses: u64,
    /// Cached columns displaced to make room.
    pub evictions: u64,
    /// Fetches that bypassed the cache because every slot was pinned.
    pub bypasses: u64,
    /// Readahead counters (all zero when nothing was announced).
    pub prefetch: PrefetchStats,
}

/// One cached column.
#[derive(Debug)]
struct Slot {
    series: usize,
    data: Vec<f64>,
    last_used: u64,
    pins: u32,
    /// Read ahead of any request and not touched yet; cleared (and
    /// counted as a prefetch hit) on first touch.
    prefetched: bool,
}

#[derive(Debug, Default)]
struct CacheInner {
    /// series → index into `slots`.
    map: HashMap<usize, usize>,
    slots: Vec<Slot>,
    tick: u64,
    stats: CacheStats,
    /// Announced columns not cached yet: what a miss's span may cover.
    planned: HashSet<usize>,
    /// Columns currently being read from the backing store; other
    /// readers wait instead of re-reading.
    inflight: HashSet<usize>,
}

/// An LRU column cache wrapping a [`ColumnRead`] backing (the on-disk
/// [`MatrixStore`] by default); implements [`SeriesSource`], so the
/// whole model-construction pipeline can run over it with memory
/// bounded by `capacity` columns instead of the full `n·m` matrix.
///
/// ```
/// use affinity_data::generator::{sensor_dataset, SensorConfig};
/// use affinity_data::SeriesSource;
/// use affinity_storage::{CachedStore, MatrixStore};
///
/// let path = std::env::temp_dir().join("affinity-cached-doc.afn");
/// let data = sensor_dataset(&SensorConfig::reduced(8, 64));
/// MatrixStore::create(&path, &data).unwrap();
///
/// // Hold at most 2 of the 8 columns in memory.
/// let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), 2);
/// let mut buf = Vec::new();
/// for v in [0, 1, 0, 1, 5, 0] {
///     assert_eq!(cached.read_into(v, &mut buf).unwrap(), data.series(v));
/// }
/// let stats = cached.stats();
/// assert_eq!(stats.hits, 2);   // the repeated 0, 1 pair
/// assert_eq!(stats.misses, 4); // 0, 1, 5, and 0 again after eviction
/// # std::fs::remove_file(&path).ok();
/// ```
#[derive(Debug)]
pub struct CachedStore<B: ColumnRead = MatrixStore> {
    backing: B,
    capacity: usize,
    inner: Mutex<CacheInner>,
    /// Signals waiters of in-flight columns: a fetch completed.
    served: Condvar,
}

impl<B: ColumnRead> CachedStore<B> {
    /// Wrap `backing` with room for at most `capacity` cached columns
    /// (clamped to at least 1).
    pub fn new(backing: B, capacity: usize) -> Self {
        CachedStore {
            backing,
            capacity: capacity.max(1),
            inner: Mutex::new(CacheInner::default()),
            served: Condvar::new(),
        }
    }

    /// Wrap `backing` with a cache budget in **bytes**, converted to
    /// whole columns (`budget / (samples · 8)`). A budget smaller than
    /// one column — including 0 — is clamped to a single slot: the
    /// cache never silently degrades to a capacity-0 pass-through.
    pub fn with_budget_bytes(backing: B, budget: usize) -> Self {
        let col_bytes = backing.samples().saturating_mul(8).max(1);
        let capacity = (budget / col_bytes).max(1);
        Self::new(backing, capacity)
    }

    /// The wrapped backing store.
    pub fn store(&self) -> &B {
        &self.backing
    }

    /// Maximum number of cached columns.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cache budget in bytes (`capacity · samples · 8`).
    pub fn budget_bytes(&self) -> usize {
        self.capacity * self.backing.samples() * 8
    }

    /// Hit/miss counters so far (including readahead counters).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Readahead columns resident and not touched yet — for ledger
    /// assertions (`issued == hits + wasted + prefetched_unconsumed`).
    pub fn prefetched_unconsumed(&self) -> usize {
        self.lock().slots.iter().filter(|s| s.prefetched).count()
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.inner.lock().expect("cache mutex")
    }

    /// Index of the least-recently-used unpinned slot, if any.
    fn victim(inner: &CacheInner) -> Option<usize> {
        inner
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.pins == 0)
            .min_by_key(|(_, s)| s.last_used)
            .map(|(i, _)| i)
    }

    /// Install a freshly read column into the cache (slot reuse on
    /// eviction). Called with the lock held. Returns `false` when every
    /// slot is pinned and the column could not be admitted. Never
    /// evicts a pinned column; evicting an untouched readahead column
    /// counts it as wasted.
    fn admit(&self, inner: &mut CacheInner, v: usize, buf: &[f64], prefetched: bool) -> bool {
        inner.planned.remove(&v);
        let slot = if inner.slots.len() < self.capacity {
            inner.slots.push(Slot {
                series: v,
                data: Vec::new(),
                last_used: 0,
                pins: 0,
                prefetched: false,
            });
            inner.slots.len() - 1
        } else if let Some(slot) = Self::victim(inner) {
            let old = inner.slots[slot].series;
            inner.map.remove(&old);
            inner.stats.evictions += 1;
            if inner.slots[slot].prefetched {
                inner.stats.prefetch.wasted += 1;
            }
            slot
        } else {
            // Every slot pinned: serve without caching. `bypasses`
            // counts *consumer* fetches that skipped the cache; a
            // dropped readahead column is counted wasted by the caller.
            if !prefetched {
                inner.stats.bypasses += 1;
            }
            return false;
        };
        let tick = inner.tick;
        let s = &mut inner.slots[slot];
        s.series = v;
        s.data.clear();
        s.data.extend_from_slice(buf); // reuses the evicted buffer
        s.last_used = tick;
        s.pins = 0;
        s.prefetched = prefetched;
        inner.map.insert(v, slot);
        true
    }

    /// First-touch accounting for a cached slot.
    fn touch(inner: &mut CacheInner, slot: usize) {
        if inner.slots[slot].prefetched {
            inner.slots[slot].prefetched = false;
            inner.stats.prefetch.hits += 1;
        }
    }

    /// Claim the span a miss on `v` reads: `v` plus the planned columns
    /// after it (across gaps of at most `MAX_SPAN_GAP`), stopping at
    /// the first cached or in-flight column and at the readahead budget.
    /// Returns the span length; every span column is marked in flight.
    fn claim_span(&self, inner: &mut CacheInner, v: usize) -> usize {
        let pinned = inner.slots.iter().filter(|s| s.pins > 0).count();
        let budget = ((self.capacity - pinned) / 2).clamp(1, MAX_SPAN);
        let ahead = self.backing.series_count().saturating_sub(v);
        let mut len = 1;
        for k in 1..budget.min(ahead) {
            let c = v + k;
            if inner.map.contains_key(&c) || inner.inflight.contains(&c) || k - len > MAX_SPAN_GAP {
                break;
            }
            if inner.planned.contains(&c) {
                len = k + 1;
            }
        }
        for c in (0..len).map(|k| v + k) {
            inner.planned.remove(&c);
            inner.inflight.insert(c);
        }
        len
    }
}

impl<B: ColumnRead> SeriesSource for CachedStore<B> {
    fn samples(&self) -> usize {
        self.backing.samples()
    }

    fn series_count(&self) -> usize {
        self.backing.series_count()
    }

    fn read_into<'a>(&'a self, v: usize, buf: &'a mut Vec<f64>) -> Result<&'a [f64], SourceError> {
        let span = {
            let mut inner = self.lock();
            loop {
                inner.tick += 1;
                let tick = inner.tick;
                if let Some(&slot) = inner.map.get(&v) {
                    inner.stats.hits += 1;
                    Self::touch(&mut inner, slot);
                    let s = &mut inner.slots[slot];
                    s.last_used = tick;
                    buf.clear();
                    buf.extend_from_slice(&s.data);
                    return Ok(&buf[..]);
                }
                if inner.inflight.contains(&v) {
                    // Another lane is already reading this column; wait
                    // for it instead of decoding twice.
                    inner = self.served.wait(inner).expect("cache mutex");
                    continue;
                }
                inner.stats.misses += 1;
                break self.claim_span(&mut inner, v);
            }
        };
        // Miss: read from the backing store *outside* the lock so
        // parallel lanes overlap their I/O, then admit the columns.
        if span == 1 {
            let result = self.backing.read_column(v, buf);
            let mut inner = self.lock();
            inner.inflight.remove(&v);
            if result.is_ok() && !inner.map.contains_key(&v) {
                self.admit(&mut inner, v, buf, false);
            }
            drop(inner);
            self.served.notify_all();
            result?;
            return Ok(&buf[..]);
        }
        // Span columns the sink resolved — a prefix, since the sink runs
        // in ascending order. Cleanup below touches only the unresolved
        // suffix: a resolved column may already be re-claimed by another
        // lane whose own miss started after ours delivered it.
        let mut resolved = 0usize;
        let result = self.backing.read_column_range(v, span, &mut |c, col| {
            let mut inner = self.lock();
            inner.inflight.remove(&c);
            resolved += 1;
            inner.tick += 1;
            if c == v {
                buf.clear();
                buf.extend_from_slice(col);
                if !inner.map.contains_key(&c) {
                    self.admit(&mut inner, c, col, false);
                }
            } else {
                inner.stats.prefetch.issued += 1;
                if inner.map.contains_key(&c) || !self.admit(&mut inner, c, col, true) {
                    inner.stats.prefetch.wasted += 1;
                }
            }
            drop(inner);
            self.served.notify_all();
        });
        let mut inner = self.lock();
        for c in v + resolved..v + span {
            inner.inflight.remove(&c);
        }
        drop(inner);
        self.served.notify_all();
        // A failure past `v` is the readahead's, not this fetch's: the
        // unread columns report it when they are fetched themselves.
        match result {
            Err(e) if resolved == 0 => Err(e),
            _ => Ok(&buf[..]),
        }
    }

    /// Pin series `v`: load it (evicting if needed) and protect it from
    /// eviction until unpinned. Advisory — if the column is absent and
    /// no slot could admit it (cache full of pins), the call returns
    /// without touching the backing store, and fetch correctness never
    /// depends on a pin succeeding. Pinning a column read ahead by an
    /// earlier miss consumes it (a prefetch hit) instead of re-reading
    /// it.
    fn pin(&self, v: usize) {
        if v >= self.backing.series_count() {
            return;
        }
        {
            let mut inner = self.lock();
            loop {
                if let Some(&slot) = inner.map.get(&v) {
                    Self::touch(&mut inner, slot);
                    inner.slots[slot].pins += 1;
                    return;
                }
                // Don't pay a backing read for a column that could not
                // be admitted anyway.
                if inner.slots.len() >= self.capacity && Self::victim(&inner).is_none() {
                    return;
                }
                if inner.inflight.contains(&v) {
                    inner = self.served.wait(inner).expect("cache mutex");
                    continue;
                }
                inner.inflight.insert(v);
                break;
            }
        }
        let mut buf = Vec::new();
        let result = self.backing.read_column(v, &mut buf);
        let mut inner = self.lock();
        inner.inflight.remove(&v);
        if result.is_ok() {
            inner.tick += 1;
            if !inner.map.contains_key(&v) {
                inner.stats.misses += 1;
                self.admit(&mut inner, v, &buf, false);
            }
            if let Some(&slot) = inner.map.get(&v) {
                inner.slots[slot].pins += 1;
            }
        }
        // else: advisory — leave the error for the actual fetch.
        drop(inner);
        self.served.notify_all();
    }

    fn unpin(&self, v: usize) {
        let mut inner = self.lock();
        if let Some(&slot) = inner.map.get(&v) {
            let s = &mut inner.slots[slot];
            s.pins = s.pins.saturating_sub(1);
        }
    }

    /// Record `cols` as planned, for later misses to read ahead over.
    /// Columns already cached, in flight, or out of range are skipped.
    /// The plan holds `8 · capacity` columns (at least one announcement
    /// window); an announcement that would overflow it clears it first
    /// — the old entries are a stale past — and then keeps its own
    /// nearest columns.
    fn prefetch(&self, cols: &[u32]) {
        let n = self.backing.series_count();
        let cap = (PLAN_PER_SLOT * self.capacity).max(PREFETCH_WINDOW);
        let fresh = |inner: &CacheInner, v: usize| {
            v < n && !inner.map.contains_key(&v) && !inner.inflight.contains(&v)
        };
        let mut inner = self.lock();
        let new = cols
            .iter()
            .map(|&c| c as usize)
            .filter(|&v| fresh(&inner, v) && !inner.planned.contains(&v))
            .count();
        if inner.planned.len() + new > cap {
            inner.planned.clear();
        }
        for &c in cols {
            if inner.planned.len() >= cap {
                break;
            }
            if fresh(&inner, c as usize) {
                inner.planned.insert(c as usize);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use affinity_data::generator::{sensor_dataset, SensorConfig};
    use affinity_data::slow::SlowSource;
    use affinity_data::DataMatrix;
    use std::path::PathBuf;
    use std::time::Duration;

    fn fixture(name: &str, n: usize, m: usize) -> (DataMatrix, CachedStore, PathBuf) {
        let dir = std::env::temp_dir().join("affinity-cache-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let data = sensor_dataset(&SensorConfig::reduced(n, m));
        MatrixStore::create(&path, &data).unwrap();
        let cached = CachedStore::new(MatrixStore::open(&path).unwrap(), 3);
        (data, cached, path)
    }

    fn assert_ledger<B: ColumnRead>(cached: &CachedStore<B>) {
        let stats = cached.stats();
        assert_eq!(
            stats.prefetch.issued,
            stats.prefetch.hits + stats.prefetch.wasted + cached.prefetched_unconsumed() as u64,
            "{stats:?}"
        );
    }

    #[test]
    fn serves_correct_columns_under_churn() {
        let (data, cached, path) = fixture("churn.afn", 10, 40);
        let mut buf = Vec::new();
        // A access pattern larger than the 3-column capacity.
        for pass in 0..3 {
            for v in 0..10 {
                let got = cached.read_into((v * 7 + pass) % 10, &mut buf).unwrap();
                assert_eq!(got, data.series((v * 7 + pass) % 10));
            }
        }
        let stats = cached.stats();
        assert_eq!(stats.hits + stats.misses, 30);
        assert!(stats.evictions > 0, "capacity 3 must evict: {stats:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn repeated_access_hits_the_cache() {
        let (data, cached, path) = fixture("hits.afn", 6, 24);
        let mut buf = Vec::new();
        for _ in 0..5 {
            assert_eq!(cached.read_into(2, &mut buf).unwrap(), data.series(2));
        }
        let stats = cached.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn pinned_columns_survive_eviction_pressure() {
        let (data, cached, path) = fixture("pin.afn", 8, 24);
        cached.pin(0);
        let mut buf = Vec::new();
        // Thrash the other two slots.
        for v in 1..8 {
            cached.read_into(v, &mut buf).unwrap();
        }
        let before = cached.stats();
        assert_eq!(cached.read_into(0, &mut buf).unwrap(), data.series(0));
        let after = cached.stats();
        assert_eq!(after.hits, before.hits + 1, "pinned column stayed cached");
        cached.unpin(0);
        // Now it can be evicted again.
        for v in 1..8 {
            cached.read_into(v, &mut buf).unwrap();
        }
        cached.read_into(0, &mut buf).unwrap();
        assert_eq!(cached.stats().hits, after.hits, "unpinned column evicted");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_slots_pinned_degrades_to_passthrough() {
        let (data, cached, path) = fixture("allpin.afn", 8, 16);
        for v in 0..3 {
            cached.pin(v);
        }
        let mut buf = Vec::new();
        for v in 3..8 {
            assert_eq!(cached.read_into(v, &mut buf).unwrap(), data.series(v));
        }
        let stats = cached.stats();
        assert_eq!(stats.bypasses, 5);
        assert_eq!(stats.evictions, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_and_budget_helpers() {
        let (_, cached, path) = fixture("oor.afn", 4, 32);
        let mut buf = Vec::new();
        assert!(matches!(
            cached.read_into(4, &mut buf),
            Err(SourceError::OutOfRange { requested: 4, .. })
        ));
        cached.pin(99); // out of range pin is a no-op
        assert_eq!(cached.capacity(), 3);
        assert_eq!(cached.budget_bytes(), 3 * 32 * 8);
        let store = MatrixStore::open(&path).unwrap();
        let by_bytes = CachedStore::with_budget_bytes(store, 2 * 32 * 8 + 7);
        assert_eq!(by_bytes.capacity(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sub_column_budgets_clamp_to_one_slot() {
        // Regression: a byte budget smaller than one column (or zero)
        // must still yield a working single-slot cache, not capacity 0.
        let (data, _, path) = fixture("clamp.afn", 4, 32);
        for budget in [0usize, 1, 7, 32 * 8 - 1] {
            let store = MatrixStore::open(&path).unwrap();
            let tiny = CachedStore::with_budget_bytes(store, budget);
            assert_eq!(tiny.capacity(), 1, "budget {budget}");
            let mut buf = Vec::new();
            assert_eq!(tiny.read_into(2, &mut buf).unwrap(), data.series(2));
            assert_eq!(tiny.read_into(2, &mut buf).unwrap(), data.series(2));
            assert_eq!(tiny.stats().hits, 1, "single slot still caches");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parallel_fetches_agree_with_the_data() {
        let (data, cached, path) = fixture("par.afn", 12, 48);
        let pool = affinity_par::ThreadPool::new(4);
        let cols: Vec<Vec<f64>> = pool.parallel_map(48, |i| {
            let mut buf = Vec::new();
            cached.read_into(i % 12, &mut buf).unwrap();
            buf
        });
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(col, data.series(i % 12));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefetched_columns_become_hits() {
        let data = sensor_dataset(&SensorConfig::reduced(10, 32));
        let slow = SlowSource::new(data.clone(), Duration::ZERO);
        let cached = CachedStore::new(slow, 6);
        let cols: Vec<u32> = (0..10).collect();
        cached.prefetch(&cols);
        let mut buf = Vec::new();
        for v in 0..10usize {
            assert_eq!(cached.read_into(v, &mut buf).unwrap(), data.series(v));
        }
        // Budget min(8, 6 / 2) = 3: the misses on 0, 3, 6 and 9 read
        // spans of 3, 3, 3 and 1 columns — four requests for ten columns.
        let stats = cached.stats();
        assert_eq!(cached.store().reads(), 4, "{stats:?}");
        assert_eq!((stats.misses, stats.hits), (4, 6), "{stats:?}");
        assert_eq!(stats.prefetch.issued, 6, "{stats:?}");
        assert_eq!(stats.prefetch.hits, 6, "{stats:?}");
        assert_ledger(&cached);
    }

    #[test]
    fn unannounced_misses_read_one_column() {
        let data = sensor_dataset(&SensorConfig::reduced(10, 16));
        let slow = SlowSource::new(data.clone(), Duration::ZERO);
        let cached = CachedStore::new(slow, 8);
        let mut buf = Vec::new();
        for v in 0..10usize {
            assert_eq!(cached.read_into(v, &mut buf).unwrap(), data.series(v));
        }
        assert_eq!(cached.store().reads(), 10);
        assert_eq!(cached.stats().prefetch, PrefetchStats::default());
    }

    #[test]
    fn spans_bridge_small_gaps_and_stop_at_cached_columns() {
        let data = sensor_dataset(&SensorConfig::reduced(30, 8));
        let slow = SlowSource::new(data.clone(), Duration::ZERO);
        let cached = CachedStore::new(slow, 16);
        let mut buf = Vec::new();
        cached.read_into(5, &mut buf).unwrap();
        // 1 and 4 are announced around a 2-column gap; 5 is cached.
        cached.prefetch(&[1, 4, 5, 6]);
        cached.read_into(0, &mut buf).unwrap();
        let stats = cached.stats();
        assert_eq!(stats.prefetch.issued, 4, "0..5 in one request: {stats:?}");
        assert_eq!(cached.store().reads(), 2);
        // 6 is still planned; a miss on it with nothing after reads it alone.
        cached.read_into(6, &mut buf).unwrap();
        assert_eq!(cached.stats().prefetch.issued, 4);
        for v in 0..7 {
            assert_eq!(cached.read_into(v, &mut buf).unwrap(), data.series(v));
        }
        assert_eq!(cached.store().reads(), 3, "1..=4 were read ahead");
        assert_ledger(&cached);
    }

    #[test]
    fn plan_overflow_keeps_the_nearest_announcement() {
        let data = sensor_dataset(&SensorConfig::reduced(200, 4));
        let slow = SlowSource::new(data, Duration::ZERO);
        // Capacity 2: the plan holds max(16, PREFETCH_WINDOW) columns.
        let cached = CachedStore::new(slow, 2);
        let far: Vec<u32> = (100..164).collect();
        cached.prefetch(&far);
        let near: Vec<u32> = (0..10).collect();
        cached.prefetch(&near);
        let inner = cached.lock();
        assert!(inner.planned.len() <= PREFETCH_WINDOW);
        assert!(
            (0..10).all(|v| inner.planned.contains(&v)),
            "new window kept"
        );
        assert!(!inner.planned.contains(&100), "stale window cleared");
    }

    #[test]
    fn wasted_prefetches_are_counted_under_thrash() {
        let data = sensor_dataset(&SensorConfig::reduced(12, 16));
        let cached = CachedStore::new(data.clone(), 4);
        let mut buf = Vec::new();
        // The miss on 0 reads 1 ahead (budget min(8, 4 / 2) = 2); the
        // consumer then reads elsewhere until column 1 is evicted unread.
        cached.prefetch(&[0, 1]);
        assert_eq!(cached.read_into(0, &mut buf).unwrap(), data.series(0));
        assert_eq!(cached.stats().prefetch.issued, 1);
        for v in 4..12 {
            cached.read_into(v, &mut buf).unwrap();
        }
        let stats = cached.stats();
        assert_eq!(
            stats.prefetch.wasted, 1,
            "an evicted unread span column is waste: {stats:?}"
        );
        assert_eq!(stats.prefetch.hits, 0);
        assert_ledger(&cached);
    }

    #[test]
    fn a_span_over_a_corrupt_column_serves_the_miss_and_skips_the_bad_column() {
        let (data, _, path) = fixture("span-corrupt.afn", 8, 16);
        let mut bytes = std::fs::read(&path).unwrap();
        // Column 3's chunk starts this far before the end of the file.
        let offset = bytes.len() - (8 - 3) * (16 * 8 + 4) + 11;
        bytes[offset] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let store = MatrixStore::open(&path).unwrap();
        let cached = CachedStore::new(SlowSource::new(store, Duration::from_millis(40)), 16);
        cached.prefetch(&[1, 2, 3, 4, 5]);
        std::thread::scope(|s| {
            let read = |v: usize| {
                let cached = &cached;
                move || {
                    let mut buf = Vec::new();
                    cached.read_into(v, &mut buf).map(|col| col.to_vec())
                }
            };
            // The span 1..=5 delivers 1 and 2, then fails on 3.
            let span = s.spawn(read(1));
            while !cached.lock().inflight.contains(&3) && !span.is_finished() {
                std::thread::yield_now();
            }
            // Lanes that miss on span columns while the span is in
            // flight wait for it, then read for themselves: the bad
            // column reports its error, the one past it its data.
            let bad = s.spawn(read(3));
            let past = s.spawn(read(4));
            assert_eq!(span.join().unwrap().unwrap(), data.series(1));
            assert!(bad.join().unwrap().is_err());
            assert_eq!(past.join().unwrap().unwrap(), data.series(4));
        });
        let stats = cached.stats();
        assert_eq!(stats.prefetch.issued, 1, "only 2 was admitted: {stats:?}");
        assert!(
            !cached.lock().map.contains_key(&3),
            "bad column not admitted"
        );
        let mut buf = Vec::new();
        // Reading the bad column itself reports the checksum failure;
        // the columns past it are served from their own reads.
        assert!(matches!(
            cached.read_into(3, &mut buf),
            Err(SourceError::Backend(msg)) if msg.contains("series 3")
        ));
        for v in [2, 5] {
            assert_eq!(cached.read_into(v, &mut buf).unwrap(), data.series(v));
        }
        assert!(cached.lock().inflight.is_empty());
        assert_ledger(&cached);
        std::fs::remove_file(&path).ok();
    }
}
