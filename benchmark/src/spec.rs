//! The four workloads and the metric tables. `BENCHMARK.json` at the
//! repo root mirrors these tables; a test keeps the two in step.

use crate::sut::Dataset;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `Server` holding the whole model.
    Mono,
    /// `CoordServer` → `Coordinator` → `k` `RemoteShard`s → `k` shard
    /// `Server`s over loopback.
    Dist { k: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ticker {
    /// Tick batches run alone, after the query streams.
    Quiescent,
    /// An open-loop ticker sends one batch every `period_ms` on a fixed
    /// schedule while the query streams run.
    OpenLoop { period_ms: u64 },
}

/// One workload. Only data shape, topology and tick schedule differ
/// between workloads; the script is the same. Counts are the work of a
/// `--seconds 20` run; [`Spec::scaled`] scales them.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Dataset,
    /// Series.
    pub n: usize,
    /// Samples per series in the model = window width.
    pub m: usize,
    pub topology: Topology,
    /// Serve with snapshot + delta journal armed (fsync on).
    pub persist_armed: bool,
    pub ticker: Ticker,
    /// Closed-loop clients of the traced run's load pass (≤ hardware
    /// threads of the 2-core box). Latencies always come from one client.
    pub clients: usize,
    /// Ticks per batch = the engine's refresh interval, so exactly one
    /// refresh falls due per batch.
    pub refresh_every: u64,
    /// Repetitions R of the build and of the persist phase.
    pub builds: usize,
    pub refresh_batches: usize,
    /// Statements per stream and pass.
    pub point: usize,
    pub mec: usize,
    pub scan: usize,
}

/// The run length the counts in [`WORKLOADS`] are sized for.
pub const BASE_SECONDS: u64 = 20;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "wide",
        why: "pair-count regime (600 series, 179 700 pairs): build is SYMEX assignment + SCAPE \
              load bound, scans return ~18 k rows so encode + socket write dominate",
        dataset: Dataset::Sensor,
        n: 600,
        m: 480,
        topology: Topology::Mono,
        persist_armed: false,
        ticker: Ticker::Quiescent,
        clients: 2,
        refresh_every: 120,
        builds: 7,
        refresh_batches: 20,
        point: 6000,
        mec: 16_000,
        scan: 400,
    },
    Spec {
        name: "long",
        why: "sample-count regime (64 series x 12 000 samples): build and full refresh are \
              bound by per-sample passes, the index is tiny, query latency is fixed per-request cost",
        dataset: Dataset::Stock,
        n: 64,
        m: 12_000,
        topology: Topology::Mono,
        persist_armed: false,
        ticker: Ticker::Quiescent,
        clients: 2,
        refresh_every: 3000,
        builds: 2,
        refresh_batches: 2,
        point: 30_000,
        mec: 16_000,
        scan: 10_000,
    },
    Spec {
        name: "churn",
        why: "writes beside reads (300 series, journal fsync on): one query client while an \
              open-loop ticker forces a refresh every 250 ms; a refresh change that steals CPU \
              or locks from readers shows here only",
        dataset: Dataset::Sensor,
        n: 300,
        m: 480,
        topology: Topology::Mono,
        persist_armed: true,
        ticker: Ticker::OpenLoop { period_ms: 250 },
        clients: 1,
        refresh_every: 120,
        builds: 12,
        refresh_batches: 60,
        point: 24_000,
        mec: 24_000,
        scan: 1200,
    },
    Spec {
        name: "dist",
        why: "hop regime: churn's data and statements through CoordServer and two shard servers \
              over loopback, so wire encode/decode, per-shard round trips and merge are the cost",
        dataset: Dataset::Sensor,
        n: 300,
        m: 480,
        topology: Topology::Dist { k: 2 },
        persist_armed: false,
        ticker: Ticker::Quiescent,
        clients: 2,
        refresh_every: 120,
        builds: 12,
        refresh_batches: 24,
        point: 8000,
        mec: 8000,
        scan: 600,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// The same workload with its counts sized for `seconds`. Work is
    /// fixed by count: `--seconds` picks the counts, no phase watches a
    /// clock, so two builds of the program do identical work.
    pub fn scaled(&self, seconds: u64) -> Spec {
        let s = |count: usize, floor: usize| {
            ((count as u64 * seconds + BASE_SECONDS / 2) / BASE_SECONDS).max(floor as u64) as usize
        };
        Spec {
            builds: s(self.builds, 1),
            refresh_batches: s(self.refresh_batches, 2),
            point: s(self.point, 200),
            mec: s(self.mec, 200),
            scan: s(self.scan, 20),
            ..self.clone()
        }
    }

    /// Ticks the run will replay after the window.
    pub fn stream_ticks(&self) -> usize {
        self.refresh_every as usize * (self.refresh_batches + 1)
    }

    /// A miniature for the self-tests: same script, seconds not minutes.
    #[cfg(test)]
    pub fn tiny(topology: Topology) -> Spec {
        Spec {
            name: "tiny",
            why: "self-test",
            dataset: Dataset::Sensor,
            n: 24,
            m: 96,
            topology,
            persist_armed: false,
            ticker: Ticker::Quiescent,
            clients: 2,
            refresh_every: 24,
            builds: 1,
            refresh_batches: 3,
            point: 60,
            mec: 40,
            scan: 12,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// For the reader of this table; the README repeats it.
    #[allow(dead_code)]
    pub meaning: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    meaning: &'static str,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        meaning,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e(
        "setup_s",
        "s",
        Better::Lower,
        0.25,
        "data + statement generation + exact references (the benchmark's own cost), median of 3",
    ),
    e2e(
        "build_s",
        "s",
        Better::Lower,
        0.25,
        "resident data -> first statement answerable, median of R",
    ),
    e2e(
        "restart_s",
        "s",
        Better::Lower,
        0.25,
        "snapshot directory -> first answer, median of R",
    ),
    e2e(
        "model_bytes_per_pair",
        "B",
        Better::Lower,
        0.02,
        "snapshot bytes / pair count",
    ),
    e2e(
        "point_p50_us",
        "us",
        Better::Lower,
        0.25,
        "socket latency, point stream, one client, median",
    ),
    e2e(
        "scan_p50_us",
        "us",
        Better::Lower,
        0.25,
        "socket latency, scan stream, one client, median",
    ),
    e2e(
        "mec_p50_us",
        "us",
        Better::Lower,
        0.25,
        "socket latency, mec stream, one client, median",
    ),
    e2e(
        "query_qps",
        "1/s",
        Better::Higher,
        0.25,
        "statements completed / wall time of the three streams, one closed-loop client",
    ),
    e2e(
        "refresh_p50_ms",
        "ms",
        Better::Lower,
        0.25,
        "tick batch sent (due) -> new epoch visible through .epoch, median",
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        Better::Lower,
        0.15,
        "VmHWM of the workload's process at exit",
    ),
];

/// A per-layer metric from the traced run; no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// Mirrored into `BENCHMARK.json` (a test keeps them in step).
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn low(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn high(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: [PerLayer; 66] = [
    // build
    low("core.afclst_s", "s"),
    low("core.afclst_iters", "count"),
    low("core.symex_assign_s", "s"),
    low("core.symex_fit_s", "s"),
    low("core.symex_pairs", "count"),
    low("core.symex_pinv_computed", "count"),
    high("core.symex_pinv_cache_hits", "count"),
    low("core.mec_prep_s", "s"),
    low("linalg.pinv_us_per_pivot", "us"),
    low("scape.build_s", "s"),
    low("scape.sequence_nodes", "count"),
    low("index.bulk_build_s", "s"),
    high("par.build_speedup_2t", "ratio"),
    low("build.unattributed_frac", "ratio"),
    // persist
    low("storage.snapshot_commit_s", "s"),
    low("storage.snapshot_open_s", "s"),
    low("storage.snapshot_bytes", "B"),
    low("stream.resume_s", "s"),
    // point
    low("ql.parse_us", "us"),
    low("ql.execute_point_us", "us"),
    low("scape.point_us", "us"),
    low("scape.count_us", "us"),
    low("serve.hop_point_us", "us"),
    // scan
    low("ql.execute_scan_us", "us"),
    low("scape.scan_us", "us"),
    low("scape.rows_per_stmt", "count"),
    low("serve.resp_bytes_per_stmt", "B"),
    high("serve.scan_mb_s", "MB/s"),
    // mec
    low("core.mec_pairwise_us", "us"),
    low("core.mec_location_us", "us"),
    low("ql.execute_mec_us", "us"),
    // admission
    low("serve.queue_high_water", "count"),
    low("serve.rejected", "count"),
    low("serve.shed", "count"),
    low("serve.deadline", "count"),
    // refresh
    low("stream.push_us_per_tick", "us"),
    low("stream.refresh_delta_ms", "ms"),
    low("stream.refresh_full_ms", "ms"),
    high("stream.delta_share", "ratio"),
    low("stream.delta_refit_pairs", "count"),
    low("stream.journal_append_ms", "ms"),
    low("serve.epoch_publish_ms", "ms"),
    low("bench.ticker_late_ms", "ms"),
    // sharding
    low("shard.k1_tax_point_us", "us"),
    low("shard.k1_tax_scan_us", "us"),
    low("shard.k2_execute_point_us", "us"),
    // coordinator
    low("coord.inproc_point_us", "us"),
    low("coord.remote_point_us", "us"),
    low("coord.hop_us", "us"),
    low("coord.proto_encode_us", "us"),
    low("coord.proto_decode_us", "us"),
    low("coord.routed_per_stmt", "count"),
    low("coord.retried", "count"),
    low("coord.degraded", "count"),
    // the traced run's own end-to-end numbers and checks
    low("trace.overhead_frac", "ratio"),
    low("trace.spans", "count"),
    low("trace.build_s", "s"),
    low("trace.point_p50_us", "us"),
    low("trace.scan_p50_us", "us"),
    low("trace.mec_p50_us", "us"),
    low("trace.refresh_p50_ms", "ms"),
    low("serve.point_p99_us", "us"),
    high("serve.load_qps", "1/s"),
    low("check.mec_rmse_pct", "%"),
    low("check.met_miss_frac", "ratio"),
    low("check.fail_frac", "ratio"),
];
