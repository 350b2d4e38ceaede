//! The repository benchmark: four workloads measured end to end, and one
//! traced run that times the calls into each layer from outside the
//! program. See `README.md` in this directory for the workloads, the
//! metrics and how to read the trace.

#![deny(unsafe_code)]

pub mod dc;
pub mod digest;
pub mod heap;
pub mod host;
pub mod parsec;
pub mod spec;
pub mod ssimd;
pub mod stats;
pub mod tracer;

use digest::Ledger;
use std::collections::BTreeMap;
use std::time::Instant;

/// Workload names, in the order the report and the traced run use.
pub const WORKLOADS: [&str; 4] = ["spec_sweep", "parsec_vm", "ssimd_mix", "dc_market"];

/// End-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("work_per_s", "1/s"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

/// Span layers, and the metric that reports each one's self time.
pub const LAYERS: [(&str, &str); 9] = [
    ("bench", "self.bench_s"),
    ("par", "self.par_s"),
    ("trace", "self.trace_s"),
    ("engine", "self.engine_s"),
    ("vm", "self.vm_s"),
    ("json", "self.json_s"),
    ("server", "self.server_s"),
    ("http", "self.http_s"),
    ("dc", "self.dc_s"),
];

/// Per-layer metrics of the traced run, with units, in report order.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("trace.gen_s", "s"),
    ("trace.generations", "count"),
    ("trace.cache_hit_ratio", "ratio"),
    ("engine.busy_s", "s"),
    ("engine.point_p50_ms", "ms"),
    ("engine.point_p99_ms", "ms"),
    ("engine.sim_cycles", "count"),
    ("engine.sim_insts", "count"),
    ("engine.host_ns_per_sim_cycle", "ns"),
    ("par.busy_ratio", "ratio"),
    ("par.tail_idle_s", "s"),
    ("vm.fork_s.b4", "s"),
    ("vm.fork_s.b32", "s"),
    ("vm.fork_s.b128", "s"),
    ("vm.run_chunk_s.b4", "s"),
    ("vm.run_chunk_s.b32", "s"),
    ("vm.run_chunk_s.b128", "s"),
    ("vm.replay_s.b4", "s"),
    ("vm.replay_s.b32", "s"),
    ("vm.replay_s.b128", "s"),
    ("vm.forks", "count"),
    ("vm.barriers", "count"),
    ("vm.replayed_accesses", "count"),
    ("vm.invalidations", "count"),
    ("mem.l1d_hit_ratio", "ratio"),
    ("mem.l2_accesses", "count"),
    ("mem.l2_hit_ratio", "ratio"),
    ("mem.dram_accesses", "count"),
    ("mem.coherence_invalidations", "count"),
    ("mem.coherence_forwards", "count"),
    ("noc.operand_msgs", "count"),
    ("noc.remote_operand_requests", "count"),
    ("noc.ls_sort_msgs", "count"),
    ("noc.rename_broadcasts", "count"),
    ("json.encode_us", "us"),
    ("json.parse_us", "us"),
    ("json.reply_bytes", "bytes"),
    ("server.queue_wait_p50_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.exec_p50_us", "us"),
    ("server.exec_p99_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.rejected", "count"),
    ("server.errors", "count"),
    ("server.persistent_job_ms", "ms"),
    ("http.post_ms", "ms"),
    ("http.polls_per_job", "ratio"),
    ("dc.catalog_build_s", "s"),
    ("dc.sharing_s", "s"),
    ("dc.fixed_s", "s"),
    ("dc.auction_work", "count"),
    ("dc.placement_work", "count"),
    ("dc.billing_work", "count"),
    ("bench.tracing_overhead", "s"),
    ("self.bench_s", "s"),
    ("self.par_s", "s"),
    ("self.trace_s", "s"),
    ("self.engine_s", "s"),
    ("self.vm_s", "s"),
    ("self.json_s", "s"),
    ("self.server_s", "s"),
    ("self.http_s", "s"),
    ("self.dc_s", "s"),
];

/// Input variants with a recorded output digest. `spec_sweep` and
/// `dc_market` walk them all in an order `--seed` picks; the other
/// workloads take the one [`variant`] selects.
pub const VARIANTS: u64 = 8;

/// Set-ups a run times before its first request.
pub const SETUP_REPEATS: usize = 5;

/// The input variant a seed selects.
#[must_use]
pub fn variant(seed: u64) -> u64 {
    seed % VARIANTS
}

/// What one untraced run of a workload measured.
#[derive(Debug)]
pub struct Measured {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Median over requests of the high-water mark of live heap bytes
    /// during one request, MiB.
    pub peak_heap_mb: f64,
    /// Work per host second of the median request (pass over the 12
    /// benchmarks on `spec_sweep`, load segment on `ssimd_mix`); the
    /// unit depends on the workload.
    pub work_per_s: f64,
    /// Median host time of one user-visible request, milliseconds. On
    /// every workload but `ssimd_mix` the work of a request is fixed by
    /// its input, so this restates the request rate; it is a report line
    /// only.
    pub request_p50_ms: f64,
    /// Operations attempted and failed.
    pub ledger: Ledger,
    /// Digest of the run's outputs.
    pub digest: String,
    /// Workload-specific metrics for the report: (name, value, unit).
    pub report: Vec<(String, f64, &'static str)>,
}

/// Per-layer metric values of the traced run, by name.
pub type Layers = BTreeMap<String, f64>;

/// Wall time of one untraced and one traced pass over the same input.
#[derive(Clone, Copy, Debug, Default)]
pub struct PassTimes {
    /// Untraced pass, seconds.
    pub untraced_s: f64,
    /// Traced pass, seconds.
    pub traced_s: f64,
}

/// The set-up times of one run. A run sets up [`SETUP_REPEATS`] times
/// before its first request and keeps the last result; then it sets up
/// once more after every request and drops the result, so the median
/// samples the host over the whole run, not only its first second. Each
/// result is dropped outside the timed region, before the next set-up
/// starts: tear-down stays out of set-up time, and the repeats up front
/// never hold two results at once.
pub struct Setups<F> {
    build: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setups<F> {
    /// Sets up [`SETUP_REPEATS`] times; returns the timings and the last
    /// result.
    pub fn start(build: F) -> (Self, T) {
        let mut setups = Setups {
            build,
            times: Vec::new(),
        };
        let mut last = None;
        while setups.times.len() < SETUP_REPEATS {
            drop(last.take());
            last = Some(setups.timed());
        }
        (setups, last.expect("at least one set-up"))
    }

    fn timed(&mut self) -> T {
        let t0 = Instant::now();
        let v = (self.build)();
        self.times.push(t0.elapsed().as_secs_f64());
        v
    }

    /// Times one more set-up and drops its result.
    pub fn again(&mut self) {
        drop(self.timed());
    }

    /// Median set-up time, seconds.
    #[must_use]
    pub fn median_s(&self) -> f64 {
        stats::median(&self.times)
    }
}

/// Report line with the heap bytes live right after set-up, which the
/// requests run on top of: the part of `peak_heap_mb` that set-up alone
/// accounts for.
#[must_use]
pub fn setup_live_line() -> (String, f64, &'static str) {
    let mb = heap::live_bytes() as f64 / (1024.0 * 1024.0);
    ("setup_live_heap_mb".into(), mb, "MB")
}

/// High-water marks of live heap bytes during single requests.
#[derive(Debug, Default)]
pub struct RequestPeaks(Vec<f64>);

impl RequestPeaks {
    /// Starts a request's mark at the heap bytes live now.
    pub fn start(&self) {
        heap::reset_peak();
    }

    /// Records the mark of the request just finished.
    pub fn finish(&mut self) {
        self.0.push(heap::peak_mb());
    }

    /// Median mark, MiB.
    #[must_use]
    pub fn median_mb(&self) -> f64 {
        stats::median(&self.0)
    }
}

/// SplitMix64: the benchmark's own seeded stream for generated inputs.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Trace-cache counters summed over the fresh caches of a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceCounts {
    /// Traces generated.
    pub generations: u64,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to generate (or wait for a generation).
    pub misses: u64,
}

impl TraceCounts {
    /// Adds one cache's counters.
    pub fn add(&mut self, cache: &sharing_trace::TraceCache) {
        self.generations += cache.generations();
        self.hits += cache.hits();
        self.misses += cache.misses();
    }
}
