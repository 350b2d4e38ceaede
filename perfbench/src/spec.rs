//! `spec_sweep`: the 12 SPEC benchmarks over all 72 sweep-grid shapes,
//! through `SuiteSurfaces::build_subset_with` on a fresh `TraceCache`
//! with the default worker count, as `ssim sweep` runs them.

use crate::digest::{fnv_hex, Digests, Ledger};
use crate::tracer::{Rec, Tracer, ROOT};
use crate::{
    setup_live_line, stats, variant, Layers, Measured, PassTimes, RequestPeaks, Setups, TraceCounts,
};
use sharing_core::{par, RunOptions, SimConfig, SimResult, Simulator, VCoreShape};
use sharing_market::{ExperimentSpec, PerfSurface, SuiteSurfaces};
use sharing_trace::{Benchmark, TraceCache, TraceSpec, SPEC_BENCHMARKS};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Name used in reports and `digests.json`.
pub const NAME: &str = "spec_sweep";

/// Dynamic instructions per trace: the `ssim sweep --len` default.
pub const TRACE_LEN: usize = 30_000;

/// Passes over the 12 benchmarks a run must complete, however short
/// `--seconds` is.
const MIN_PASSES: usize = 2;

/// Per-point re-drives in the traced run: two give 1728 point samples,
/// enough for a p99 with ten samples beyond it.
const REDRIVES: usize = 2;

/// The experiment one input variant sweeps.
#[must_use]
pub fn experiment(variant: u64) -> ExperimentSpec {
    ExperimentSpec {
        trace_len: TRACE_LEN,
        seed: 0x00A5_2014 + variant,
        calibration: sharing_trace::CALIBRATION_VERSION,
    }
}

/// One sweep exactly as `ssim sweep` runs it.
#[must_use]
pub fn sweep(spec: ExperimentSpec, cache: &TraceCache) -> SuiteSurfaces {
    SuiteSurfaces::build_subset_with(spec, &SPEC_BENCHMARKS, cache, par::resolve_jobs(None))
}

/// Digest of the serialized surfaces.
#[must_use]
pub fn digest(surfaces: &SuiteSurfaces) -> String {
    fnv_hex(sharing_json::to_string(surfaces).as_bytes())
}

/// The set-up a sweep pays once per benchmark before its points run:
/// the 12 traces, generated on a fresh cache. Each measured sweep pays
/// it again on its own fresh cache, as every `ssim sweep` does.
fn generate(spec: ExperimentSpec) -> TraceCache {
    let cache = TraceCache::new();
    let ts = TraceSpec::new(spec.trace_len, spec.seed);
    for &b in &SPEC_BENCHMARKS {
        let _ = cache.single(b, &ts);
    }
    cache
}

/// One benchmark over the 72 shapes, as `ssim sweep --benchmark` runs
/// it: one call to `SuiteSurfaces::build_subset_with` on a fresh cache.
/// Returns the surface and the simulated instructions, counted from the
/// trace length (every shape replays the whole trace).
fn sweep_one(spec: ExperimentSpec, bench: Benchmark) -> (PerfSurface, u64) {
    let cache = TraceCache::new();
    let suite = SuiteSurfaces::build_subset_with(spec, &[bench], &cache, par::resolve_jobs(None));
    let ts = TraceSpec::new(spec.trace_len, spec.seed);
    let insts = cache.single(bench, &ts).len() as u64 * VCoreShape::sweep_grid().count() as u64;
    (suite.surface(bench).clone(), insts)
}

/// The untraced measurement. A request is one benchmark's sweep; a pass
/// sweeps all 12 and is checked as one suite. Pass `i` runs input
/// variant `variant(seed + i)`, so every run walks the same variants and
/// only their order depends on the seed. `work_per_s` is the median
/// pass's rate, so every benchmark counts toward it.
#[must_use]
pub fn measure(seed: u64, seconds: f64, digests: &Digests) -> Measured {
    let (mut setups, _) = Setups::start(|| generate(experiment(variant(seed))));
    let setup_live = setup_live_line();
    let mut ledger = Ledger::default();
    let (mut pass_rates, mut times) = (Vec::new(), Vec::new());
    let mut peaks = RequestPeaks::default();
    let mut last = String::new();
    let start = Instant::now();
    while pass_rates.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let v = variant(seed.wrapping_add(pass_rates.len() as u64));
        let spec = experiment(v);
        let mut parts = BTreeMap::new();
        let (mut pass_s, mut pass_insts) = (0.0, 0);
        for &b in &SPEC_BENCHMARKS {
            peaks.start();
            let t0 = Instant::now();
            let (surface, insts) = sweep_one(spec, b);
            let dt = t0.elapsed().as_secs_f64();
            peaks.finish();
            times.push(dt);
            pass_s += dt;
            pass_insts += insts;
            parts.insert(b, surface);
        }
        pass_rates.push(pass_insts as f64 / pass_s);
        last = digest(&SuiteSurfaces::from_parts(spec, parts));
        ledger.digest(1, &last, digests.get(NAME, v));
        setups.again();
    }
    Measured {
        setup_s: setups.median_s(),
        work_per_s: stats::median(&pass_rates),
        peak_heap_mb: peaks.median_mb(),
        request_p50_ms: stats::median(&times) * 1e3,
        ledger,
        digest: last,
        report: vec![
            setup_live,
            (
                "sim_insts_per_s".into(),
                stats::median(&pass_rates),
                "insts/s",
            ),
            ("passes".into(), pass_rates.len() as f64, "count"),
        ],
    }
}

/// Small dense ids for worker threads, so each gets its own track.
#[derive(Default)]
struct Tracks(Mutex<Vec<ThreadId>>);

impl Tracks {
    fn of_current(&self) -> u64 {
        let me = std::thread::current().id();
        let mut ids = self.0.lock().expect("track ids");
        let i = ids.iter().position(|&t| t == me).unwrap_or_else(|| {
            ids.push(me);
            ids.len() - 1
        });
        i as u64 + 1
    }
}

/// The sweep re-driven point by point through the public API, with one
/// span per trace lookup and per `Simulator::run_with` call. Same task
/// order, same worker pool, same trace cache use as
/// `SuiteSurfaces::build_subset_with`.
fn redrive(
    spec: ExperimentSpec,
    cache: &TraceCache,
    tracer: &Tracer,
    parent: u64,
) -> Vec<((Benchmark, VCoreShape), SimResult)> {
    let ts = TraceSpec::new(spec.trace_len, spec.seed);
    let tasks: Vec<(Benchmark, VCoreShape)> = SPEC_BENCHMARKS
        .iter()
        .flat_map(|&b| VCoreShape::sweep_grid().map(move |s| (b, s)))
        .collect();
    let tracks = Tracks::default();
    let results = par::map_indexed(par::resolve_jobs(None), &tasks, |_, &(b, s)| {
        let track = tracks.of_current();
        let point = tracer.span("point", "par", track, parent);
        let trace = {
            let _t = tracer.span("trace.single", "trace", track, point.id());
            cache.single(b, &ts)
        };
        let cfg = SimConfig::with_shape(s.slices, s.l2_banks).expect("sweep grid shapes are valid");
        let _e = tracer.span("engine.run_with", "engine", track, point.id());
        Simulator::new(cfg)
            .expect("valid config")
            .run_with(&trace, RunOptions::new())
            .result
    });
    tasks.into_iter().zip(results).collect()
}

/// Worker-pool figures of one re-drive pass: Σ point time, and the idle
/// time workers spent after their last point while the pass finished.
fn pool_figures(spans: &[Rec], pass: &Rec) -> (f64, f64, usize) {
    let points: Vec<&Rec> = spans
        .iter()
        .filter(|s| s.parent == pass.id && s.name == "point")
        .collect();
    let busy: u64 = points.iter().map(|p| p.dur_ns()).sum();
    let mut last_end: BTreeMap<u64, u64> = BTreeMap::new();
    for p in &points {
        let e = last_end.entry(p.track).or_default();
        *e = (*e).max(p.end_ns);
    }
    let idle: u64 = last_end
        .values()
        .map(|&e| pass.end_ns.saturating_sub(e))
        .sum();
    (busy as f64 / 1e9, idle as f64 / 1e9, last_end.len())
}

/// The traced pass: one untraced sweep, then [`REDRIVES`] per-point
/// re-drives that must reproduce it bit for bit.
///
/// # Errors
///
/// Returns a message when a re-drive differs from the untraced sweep.
pub fn traced(
    variant: u64,
    tracer: &Tracer,
    layers: &mut Layers,
    counts: &mut TraceCounts,
    results: &mut Vec<SimResult>,
) -> Result<PassTimes, String> {
    let spec = experiment(variant);
    let reference = sweep(spec, &TraceCache::new());
    let want = digest(&reference);
    // Timed after a first sweep, like the re-drives it is compared with.
    let t0 = Instant::now();
    std::hint::black_box(sweep(spec, &TraceCache::new()));
    let untraced_s = t0.elapsed().as_secs_f64();

    let root = tracer.span(NAME, "bench", 0, ROOT);
    let mut pass_ids = Vec::new();
    let mut redrive_s = 0.0;
    let mut first_pass: Vec<SimResult> = Vec::new();
    for pass in 0..REDRIVES {
        let cache = TraceCache::new();
        let t1 = Instant::now();
        let span = tracer.span(format!("sweep.redrive.{pass}"), "bench", 0, root.id());
        pass_ids.push(span.id());
        let points = redrive(spec, &cache, tracer, span.id());
        drop(span);
        redrive_s += t1.elapsed().as_secs_f64();
        counts.add(&cache);

        let mut by_bench: BTreeMap<Benchmark, BTreeMap<VCoreShape, f64>> = BTreeMap::new();
        for ((b, s), r) in &points {
            let ipc = r.ipc();
            let expected = reference.surface(*b).get(*s).map(f64::to_bits);
            if expected != Some(ipc.to_bits()) {
                return Err(format!(
                    "{NAME}: re-driven {b} at {s} gave IPC {ipc}, the sweep gave {expected:?}"
                ));
            }
            by_bench.entry(*b).or_default().insert(*s, ipc);
        }
        let rebuilt = SuiteSurfaces::from_parts(
            spec,
            by_bench
                .into_iter()
                .map(|(b, pts)| (b, PerfSurface::new(b.name(), pts)))
                .collect(),
        );
        if digest(&rebuilt) != want {
            return Err(format!("{NAME}: re-driven surfaces serialize differently"));
        }
        if pass == 0 {
            first_pass = points.into_iter().map(|(_, r)| r).collect();
        }
    }
    drop(root);

    let spans = tracer.spans();
    let run_with: Vec<&Rec> = spans
        .iter()
        .filter(|s| s.name == "engine.run_with")
        .collect();
    let point_ms: Vec<f64> = run_with.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    let busy_ns: u64 = run_with.iter().map(|s| s.dur_ns()).sum();
    let (cycles, insts) = first_pass
        .iter()
        .fold((0u64, 0u64), |(c, i), r| (c + r.cycles, i + r.instructions));
    // Every pass simulates the same points; the spans cover all passes.
    let (cycles, insts) = (cycles * REDRIVES as u64, insts * REDRIVES as u64);
    results.extend(first_pass);
    layers.insert("engine.busy_s".into(), busy_ns as f64 / 1e9);
    layers.insert("engine.point_p50_ms".into(), stats::median(&point_ms));
    if !stats::supported(point_ms.len(), 99.0) {
        return Err(format!(
            "{NAME}: {} point samples cannot support a p99",
            point_ms.len()
        ));
    }
    layers.insert(
        "engine.point_p99_ms".into(),
        stats::percentile(&point_ms, 99.0),
    );
    layers.insert("engine.sim_cycles".into(), cycles as f64);
    layers.insert("engine.sim_insts".into(), insts as f64);
    layers.insert(
        "engine.host_ns_per_sim_cycle".into(),
        busy_ns as f64 / cycles as f64,
    );

    let (mut busy, mut idle, mut capacity) = (0.0, 0.0, 0.0);
    for id in pass_ids {
        let pass = spans.iter().find(|s| s.id == id).expect("pass span");
        let (b, i, workers) = pool_figures(&spans, pass);
        busy += b;
        idle += i;
        capacity += pass.dur_ns() as f64 / 1e9 * workers as f64;
    }
    layers.insert("par.busy_ratio".into(), busy / capacity);
    layers.insert("par.tail_idle_s".into(), idle);
    Ok(PassTimes {
        untraced_s,
        traced_s: redrive_s / REDRIVES as f64,
    })
}
