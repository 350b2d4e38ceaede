//! `parsec_vm`: dedup, swaptions and ferret as 4-thread VMs with 2
//! Slices per VCore, at a shared L2 of 4, 32 and 128 banks, one VM at a
//! time through `VmSimulator::run` with default engine and thread
//! settings, as `ssim run --benchmark dedup` runs them.

use crate::digest::{fnv_hex, Digests, Ledger};
use crate::tracer::{Tracer, ROOT};
use crate::{
    setup_live_line, stats, Layers, Measured, PassTimes, RequestPeaks, Setups, TraceCounts,
};
use sharing_core::multi::DEFAULT_CHUNK;
use sharing_core::{
    EngineKind, MemAccess, MemorySystem, SimConfig, SimResult, VCoreEngine, VmSimulator,
};
use sharing_trace::{Benchmark, ThreadedTrace, TraceCache, TraceSpec, PARSEC_BENCHMARKS};
use std::sync::Arc;
use std::time::Instant;

/// Name used in reports and `digests.json`.
pub const NAME: &str = "parsec_vm";

/// Slices per VCore.
pub const SLICES: usize = 2;

/// Shared-L2 sizes, in 64 KB banks.
pub const BANKS: [usize; 3] = [4, 32, 128];

/// Dynamic instructions per thread: the `ssim run --len` default.
pub const THREAD_LEN: usize = 60_000;

/// Rounds (each VM once) a run must complete, however short
/// `--seconds` is.
const MIN_ROUNDS: usize = 2;

/// The trace spec one input variant uses.
#[must_use]
pub fn trace_spec(variant: u64) -> TraceSpec {
    TraceSpec::new(THREAD_LEN, 0x0005_2014 + variant)
}

/// Generates the threaded traces on a fresh cache (the set-up step).
#[must_use]
pub fn generate(variant: u64) -> Vec<Arc<ThreadedTrace>> {
    let cache = TraceCache::new();
    let spec = trace_spec(variant);
    PARSEC_BENCHMARKS
        .iter()
        .map(|&b| cache.threaded(b, &spec))
        .collect()
}

fn config(banks: usize) -> SimConfig {
    SimConfig::with_shape(SLICES, banks).expect("PARSEC shapes are valid")
}

/// One VM run exactly as `ssim run` performs it.
#[must_use]
pub fn run_vm(banks: usize, trace: &ThreadedTrace) -> SimResult {
    VmSimulator::new(config(banks))
        .expect("valid config")
        .run(trace)
}

/// Digest of one round's results, serialized in run order.
#[must_use]
pub fn digest(results: &[SimResult]) -> String {
    let text: String = results.iter().map(sharing_json::to_string).collect();
    fnv_hex(text.as_bytes())
}

/// One round — every benchmark at every L2 size, the request this
/// workload times. Returns the results and the round's host time in
/// seconds.
pub fn round(traces: &[Arc<ThreadedTrace>]) -> (Vec<SimResult>, f64) {
    let t0 = Instant::now();
    let results = traces
        .iter()
        .flat_map(|trace| BANKS.map(|banks| run_vm(banks, trace)))
        .collect();
    (results, t0.elapsed().as_secs_f64())
}

/// The untraced measurement.
#[must_use]
pub fn measure(variant: u64, seconds: f64, digests: &Digests) -> Measured {
    let (mut setups, traces) = Setups::start(|| generate(variant));
    let setup_live = setup_live_line();
    let want = digests.get(NAME, variant);
    let mut ledger = Ledger::default();
    let (mut rates, mut rounds) = (Vec::new(), Vec::new());
    let mut peaks = RequestPeaks::default();
    let mut last = String::new();
    let start = Instant::now();
    while rates.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        peaks.start();
        let (results, round_s) = round(&traces);
        peaks.finish();
        let insts: u64 = results.iter().map(|r| r.instructions).sum();
        rates.push(insts as f64 / round_s);
        rounds.push(round_s);
        last = digest(&results);
        ledger.digest(results.len() as u64, &last, want);
        setups.again();
    }
    Measured {
        setup_s: setups.median_s(),
        peak_heap_mb: peaks.median_mb(),
        request_p50_ms: stats::median(&rounds) * 1e3,
        ledger,
        digest: last,
        report: vec![
            setup_live,
            ("sim_insts_per_s".into(), stats::median(&rates), "insts/s"),
            ("rounds".into(), rates.len() as f64, "count"),
        ],
        work_per_s: stats::median(&rates),
    }
}

/// Work counts of one re-driven VM run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmCounts {
    /// Memory-system forks (one per lane per compute phase).
    pub forks: u64,
    /// Barriers (compute phases).
    pub barriers: u64,
    /// Accesses replayed into the authoritative memory system.
    pub replayed_accesses: u64,
    /// L1 invalidations delivered at barriers.
    pub invalidations: u64,
}

struct Lane<'a> {
    engine: VCoreEngine,
    insts: &'a [sharing_isa::DynInst],
    cursor: usize,
    log: Vec<MemAccess>,
}

/// `VmSimulator::run` re-driven through the public barrier API —
/// `MemorySystem::fork`/`take_log`/`replay` and
/// `VCoreEngine::run_chunk`/`invalidate_line`/`finish` — with one span
/// per fork, chunk, replay and invalidation round, tagged with the L2
/// size. One worker, default chunk and default engine, as
/// `VmSimulator::run` uses by default.
#[must_use]
pub fn redrive(
    cfg: SimConfig,
    workload: &ThreadedTrace,
    tracer: &Tracer,
    parent: u64,
) -> (SimResult, VmCounts) {
    let tag = format!("b{}", cfg.l2_banks());
    let mut mem = MemorySystem::shared(cfg.l2_banks(), cfg.mem.memory_delay);
    if workload.thread_count() == 1 {
        mem.coherent = false;
    }
    let mut lanes: Vec<Lane> = workload
        .threads()
        .iter()
        .enumerate()
        .map(|(v, t)| Lane {
            engine: VCoreEngine::new_with_kind(cfg, v, EngineKind::default()),
            insts: t.insts(),
            cursor: 0,
            log: Vec::new(),
        })
        .collect();
    let mut counts = VmCounts::default();
    let mut invals: Vec<(usize, u64)> = Vec::new();
    loop {
        {
            let _s = tracer.span(format!("vm.replay.{tag}"), "vm", 0, parent);
            for lane in &mut lanes {
                mem.replay(&lane.log);
                counts.replayed_accesses += lane.log.len() as u64;
                lane.log.clear();
            }
        }
        {
            let _s = tracer.span(format!("vm.invalidate.{tag}"), "vm", 0, parent);
            std::mem::swap(&mut invals, &mut mem.pending_invals);
            for (v, line) in invals.drain(..) {
                if let Some(lane) = lanes.get_mut(v) {
                    lane.engine.invalidate_line(line);
                    counts.invalidations += 1;
                }
            }
        }
        if lanes.iter().all(|l| l.cursor >= l.insts.len()) {
            break;
        }
        counts.barriers += 1;
        for lane in &mut lanes {
            let start = lane.cursor;
            if start >= lane.insts.len() {
                continue;
            }
            let end = (start + DEFAULT_CHUNK).min(lane.insts.len());
            let mut fork = {
                let _s = tracer.span(format!("vm.fork.{tag}"), "vm", 0, parent);
                mem.fork()
            };
            counts.forks += 1;
            {
                let _s = tracer.span(format!("vm.run_chunk.{tag}"), "engine", 0, parent);
                lane.engine.run_chunk(&mut fork, &lane.insts[start..end]);
            }
            lane.cursor = end;
            lane.log = fork.take_log();
        }
    }
    (aggregate(cfg, workload.name(), lanes, &mem), counts)
}

/// The VM total exactly as `VmSimulator::run` forms it: VM time is the
/// slowest thread, counters sum over threads, L2 and memory counters
/// come from the shared memory system.
fn aggregate(cfg: SimConfig, name: &str, lanes: Vec<Lane>, mem: &MemorySystem) -> SimResult {
    let mut cycles = 0u64;
    let mut total = SimResult {
        workload: name.to_string(),
        shape: Some(cfg.shape()),
        ..SimResult::default()
    };
    for lane in lanes {
        cycles = cycles.max(lane.engine.cycles());
        let r = lane.engine.finish(name);
        total.instructions += r.instructions;
        total.predictor.predictions += r.predictor.predictions;
        total.predictor.mispredictions += r.predictor.mispredictions;
        total.predictor.btb_misses += r.predictor.btb_misses;
        total.mem.l1d.accesses += r.mem.l1d.accesses;
        total.mem.l1d.hits += r.mem.l1d.hits;
        total.mem.l1i.accesses += r.mem.l1i.accesses;
        total.mem.l1i.hits += r.mem.l1i.hits;
        total.mem.store_forwards += r.mem.store_forwards;
        total.mem.lsq_violations += r.mem.lsq_violations;
        total.mem.coherence_invalidations += r.mem.coherence_invalidations;
        total.mem.coherence_forwards += r.mem.coherence_forwards;
        total.remote_operand_requests += r.remote_operand_requests;
        total.lrf_copy_hits += r.lrf_copy_hits;
        total.ls_sort_messages += r.ls_sort_messages;
        total.rename_broadcasts += r.rename_broadcasts;
        total.operand_net += r.operand_net;
        total.stalls.rob_full += r.stalls.rob_full;
        total.stalls.window_full += r.stalls.window_full;
        total.stalls.lsq_full += r.stalls.lsq_full;
        total.stalls.mshr_full += r.stalls.mshr_full;
        total.stalls.store_buffer_full += r.stalls.store_buffer_full;
        total.stalls.freelist_empty += r.stalls.freelist_empty;
        total.stalls.mispredict += r.stalls.mispredict;
        total.stalls.icache += r.stalls.icache;
    }
    total.cycles = cycles;
    VCoreEngine::absorb_mem_stats(&mut total, mem);
    total
}

/// The traced pass: trace generation and one untraced round, then every
/// VM re-driven, which must reproduce the untraced results bit for bit.
///
/// # Errors
///
/// Returns a message when a re-driven VM differs from `VmSimulator::run`.
pub fn traced(
    variant: u64,
    tracer: &Tracer,
    layers: &mut Layers,
    counts: &mut TraceCounts,
    results: &mut Vec<SimResult>,
) -> Result<PassTimes, String> {
    let (reference, _) = round(&generate(variant));
    // Timed after a first round, like the re-drive it is compared with.
    let t0 = Instant::now();
    std::hint::black_box(round(&generate(variant)));
    let untraced_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let root = tracer.span(NAME, "bench", 0, ROOT);
    let cache = TraceCache::new();
    let spec = trace_spec(variant);
    let traces: Vec<Arc<ThreadedTrace>> = PARSEC_BENCHMARKS
        .iter()
        .map(|&b: &Benchmark| {
            let _s = tracer.span("trace.threaded", "trace", 0, root.id());
            cache.threaded(b, &spec)
        })
        .collect();
    counts.add(&cache);
    let mut total = VmCounts::default();
    let mut redriven = Vec::new();
    for trace in &traces {
        for &banks in &BANKS {
            let vm = tracer.span(
                format!("vm.run.{}.b{banks}", trace.name()),
                "vm",
                0,
                root.id(),
            );
            let (r, c) = redrive(config(banks), trace, tracer, vm.id());
            total.forks += c.forks;
            total.barriers += c.barriers;
            total.replayed_accesses += c.replayed_accesses;
            total.invalidations += c.invalidations;
            redriven.push(r);
        }
    }
    drop(root);
    let traced_s = t1.elapsed().as_secs_f64();
    for (a, b) in reference.iter().zip(&redriven) {
        if sharing_json::to_string(a) != sharing_json::to_string(b) || a != b {
            return Err(format!(
                "{NAME}: re-driven {} on {:?} differs from VmSimulator::run",
                a.workload, a.shape
            ));
        }
    }

    let spans = tracer.spans();
    for banks in BANKS {
        for part in ["fork", "run_chunk", "replay"] {
            let name = format!("vm.{part}.b{banks}");
            layers.insert(
                format!("vm.{part}_s.b{banks}"),
                crate::tracer::total_s(&spans, &name),
            );
        }
    }
    layers.insert("vm.forks".into(), total.forks as f64);
    layers.insert("vm.barriers".into(), total.barriers as f64);
    layers.insert(
        "vm.replayed_accesses".into(),
        total.replayed_accesses as f64,
    );
    layers.insert("vm.invalidations".into(), total.invalidations as f64);
    results.extend(redriven);
    Ok(PassTimes {
        untraced_s,
        traced_s,
    })
}
