//! Golden digests: simulation results pinned against history.
//!
//! Each case below runs one fixed workload and hashes its serialized
//! result (`sharing_json::to_string`; a `Debug` dump for per-instruction
//! timings; the event log for the datacenter scenario) with FNV-1a
//! (`sharing_dc::fnv64`). The expected digests in [`GOLDEN`] were
//! recorded from an earlier build, so any change to a simulated
//! constant, counter, or ordering shows up here even when every other
//! test still agrees with itself.
//!
//! On a mismatch the failing test prints the replacement table lines.
//! If the change in results is intended, paste them into [`GOLDEN`] and
//! say in CHANGES.md which results moved and why.

use sharing_arch::core::{
    run_phased_with, ReconfigCosts, RunOptions, SimConfig, Simulator, VmSimulator,
};
use sharing_arch::dc::{fnv64, BillingMode, DcSim, Scenario};
use sharing_arch::market::{ExperimentSpec, SuiteSurfaces};
use sharing_arch::trace::{
    bursty_profile, phase_shift_profile, Benchmark, ProgramGenerator, ThreadedTrace, Trace,
    TraceCache, TraceSpec, ALL_BENCHMARKS,
};
use std::collections::BTreeMap;

/// `(case, FNV-1a digest of its bytes)`, grouped by the prefix before
/// the first `/`.
const GOLDEN: &[(&str, &str)] = &[
    ("bench/apache@4x4", "3242b00a4dbe4208"),
    ("bench/astar@4x4", "0967542aeb08fc1d"),
    ("bench/bzip@4x4", "933cae07c80d7836"),
    ("bench/dedup@4x4", "4349d1442a225c5f"),
    ("bench/ferret@4x4", "459deb7647ee0635"),
    ("bench/gcc@4x4", "881e887a3f920841"),
    ("bench/gobmk@4x4", "2043ea575abb543e"),
    ("bench/h264ref@4x4", "caebf8e31071ea6e"),
    ("bench/hmmer@4x4", "bd7351238be0416c"),
    ("bench/libquantum@4x4", "85051861593dbc5a"),
    ("bench/mcf@4x4", "8d87ab15b8605a01"),
    ("bench/omnetpp@4x4", "be9f5c0051fc5fc4"),
    ("bench/perlbench@4x4", "58b067ff9e0ae860"),
    ("bench/sjeng@4x4", "93490a93f0750dc3"),
    ("bench/swaptions@4x4", "d8ea84386dbbae6b"),
    ("chunk/dedup@2x4/1", "bb561d33a0591ca1"),
    ("chunk/dedup@2x4/10000", "0533e580c1244ee4"),
    ("chunk/dedup@2x4/333", "2239db1711e83a3a"),
    ("chunk/dedup@2x4/7", "0270ac1814c93657"),
    ("cosched/omnetpp+libquantum+gcc+mcf@2x4", "6210ba5441a393ba"),
    ("dc/fixed", "41c7fa42d3b3fc6a"),
    ("dc/sharing", "177c1bb44056d2ed"),
    ("grid/apache@1x0", "8ff2335ff0d7df7b"),
    ("grid/apache@1x2", "be8cbbbf46d90140"),
    ("grid/apache@1x4", "b0cfd5502529ce22"),
    ("grid/apache@6x8", "bb1d587f8163ff96"),
    ("grid/apache@7x4", "ec646eec3d1db146"),
    ("grid/apache@8x16", "27e1feefbb69e5ec"),
    ("grid/gcc@1x0", "c7b30d677df59da2"),
    ("grid/gcc@4x4", "178bccae1065622b"),
    ("grid/gcc@8x16", "d4413a75bf71d325"),
    ("grid/gcc@8x8", "68131f52e3d9536e"),
    ("grid/libquantum@1x0", "f91e4cd5ecad1197"),
    ("grid/libquantum@3x16", "468217e92973895f"),
    ("grid/libquantum@5x2", "c2c912514090466e"),
    ("grid/libquantum@6x8", "448a127bb1285abc"),
    ("grid/libquantum@7x2", "efa5cc1e363d5bd3"),
    ("grid/libquantum@8x16", "e4d7e207990d2e66"),
    ("grid/mcf@1x0", "7025e8073d9064de"),
    ("grid/mcf@3x2", "7857a5ccf46d74eb"),
    ("grid/mcf@7x0", "2828fa98d2829065"),
    ("grid/mcf@7x2", "58844fa43f1b9d62"),
    ("grid/mcf@8x16", "15b63ecdaa38b362"),
    ("grid/omnetpp@1x0", "c9e95975c6675e5d"),
    ("grid/omnetpp@2x4", "2296d961eeb85896"),
    ("grid/omnetpp@3x16", "1718926c7fc01eed"),
    ("grid/omnetpp@4x2", "683f6a678514e7a5"),
    ("grid/omnetpp@7x2", "9a22cb57a78803fd"),
    ("grid/omnetpp@8x16", "518446005ed1c316"),
    ("phased/gcc@1x2,4x2,4x8", "991ccd1ce339a73d"),
    ("profile/gcc@2x2", "da53d649bcd50ee9"),
    ("profile/gcc@5x8", "95cafbf15d5180a7"),
    ("profile/gcc@8x16", "f561357c123b44fa"),
    ("profile/libquantum@2x2", "aee07ea890da008d"),
    ("profile/libquantum@5x8", "b8a4870b019d62f1"),
    ("profile/libquantum@8x16", "23f1e271587d25c5"),
    ("profile/mcf@2x2", "6d2ca9263b1d668f"),
    ("profile/mcf@5x8", "bbc718203aedd74e"),
    ("profile/mcf@8x16", "a40594c907b97154"),
    ("smoke/gcc@1x0", "a2bae322e9421f8c"),
    ("smoke/gcc@2x2", "57a4d0b512b03e3a"),
    ("smoke/gcc@8x16", "4e5789aee4510681"),
    ("single/apache@4x4", "d67bf090d769dd11"),
    ("single/bursty@4x4", "198a3c5b8f33e052"),
    ("single/gcc@4x4", "881e887a3f920841"),
    ("single/phaseshift@4x4", "dd0e9a7eb9c86371"),
    ("stress/bursty@1x0", "3340f1099611e730"),
    ("stress/bursty@2x2", "1d9a118e3fc34f23"),
    ("stress/bursty@4x8", "067afcddd72d2095"),
    ("stress/bursty@8x16", "28c7eb5ff609b684"),
    ("stress/phaseshift@1x0", "039ca11b889b795d"),
    ("stress/phaseshift@2x2", "68302eebb4596ac8"),
    ("stress/phaseshift@4x8", "7661a5b199a8585c"),
    ("stress/phaseshift@8x16", "949a51f1761f179a"),
    ("surface/gcc+dedup/500", "3954368cab8d3c52"),
    ("timings/h264ref@4x4", "ad7ed7af533cdc3c"),
    ("verified/gcc@4x4", "b4cfb5322e151766"),
    ("vm/apache@2x4", "6570218e310ee31b"),
    ("vm/astar@2x4", "f1818f0d221629f0"),
    ("vm/bzip@2x4", "855cbeef7f41b3d8"),
    ("vm/dedup@2x4", "b13e90b307572843"),
    ("vm/ferret@2x4", "7b760f4b5a5bd095"),
    ("vm/gcc@2x4", "fe6d3d75453b9aef"),
    ("vm/gobmk@2x4", "e4d4fd51a7d2e21b"),
    ("vm/h264ref@2x4", "ec93a39394d5036a"),
    ("vm/hmmer@2x4", "e447d332f32224b3"),
    ("vm/libquantum@2x4", "0b20a98f62af1170"),
    ("vm/mcf@2x4", "6bf6f4c625d2ebb2"),
    ("vm/omnetpp@2x4", "f0b8018c0142add8"),
    ("vm/perlbench@2x4", "e9485a8655053ca6"),
    ("vm/sjeng@2x4", "7fce2443eb5951ad"),
    ("vm/swaptions@2x4", "21e2a26eb17d9377"),
    ("vmstress/bursty@2x4", "e990cd930d79a055"),
    ("vmstress/phaseshift@2x4", "e423a2bc2fd2f091"),
];

fn digest(bytes: &str) -> String {
    format!("{:016x}", fnv64(bytes.as_bytes()))
}

/// Checks one group's `(case, bytes)` pairs against the [`GOLDEN`]
/// entries whose names start with `prefix`: every case must match, and
/// no entry of the group may be left without a case.
fn check(prefix: &str, cases: Vec<(String, String)>) {
    let expected: BTreeMap<&str, &str> = GOLDEN
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .copied()
        .collect();
    let mut changed = Vec::new();
    for (name, bytes) in &cases {
        let got = digest(bytes);
        if expected.get(name.as_str()) != Some(&got.as_str()) {
            changed.push(format!("    (\"{name}\", \"{got}\"),"));
        }
    }
    let stale: Vec<&str> = expected
        .keys()
        .filter(|k| !cases.iter().any(|(name, _)| name == *k))
        .copied()
        .collect();
    assert!(
        changed.is_empty() && stale.is_empty(),
        "golden digests for `{prefix}` changed. If intended, replace these \
         lines in GOLDEN (tests/golden.rs) and record why in CHANGES.md:\n{}\n\
         entries with no case: {stale:?}",
        changed.join("\n")
    );
}

fn cfg(slices: usize, banks: usize) -> SimConfig {
    SimConfig::with_shape(slices, banks).expect("valid shape")
}

fn single(cfg: SimConfig, trace: &Trace) -> String {
    sharing_json::to_string(
        &Simulator::new(cfg)
            .expect("valid config")
            .run_with(trace, RunOptions::new())
            .result,
    )
}

fn vm(cfg: SimConfig) -> VmSimulator {
    VmSimulator::new(cfg).expect("valid config")
}

fn vm_run(cfg: SimConfig, workload: &ThreadedTrace) -> String {
    sharing_json::to_string(&vm(cfg).run(workload))
}

/// Every benchmark, one mid-size shape.
#[test]
fn benchmarks_at_one_shape() {
    let spec = TraceSpec::new(4_000, 11);
    let cases = ALL_BENCHMARKS
        .iter()
        .map(|b| {
            (
                format!("bench/{b}@4x4"),
                single(cfg(4, 4), &b.generate(&spec)),
            )
        })
        .collect();
    check("bench/", cases);
}

/// A small deterministic LCG for sampling the shape grid.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A seeded sample of the (slices × l2_banks) grid, several benchmarks
/// each — the corners (1,0) and (8,16) always included.
#[test]
fn sampled_shape_grid() {
    let slices_options = [1usize, 2, 3, 4, 5, 6, 7, 8];
    let banks_options = [0usize, 2, 4, 8, 16];
    let benches = [
        Benchmark::Gcc,
        Benchmark::Libquantum,
        Benchmark::Mcf,
        Benchmark::Apache,
        Benchmark::Omnetpp,
    ];
    let mut state = 0x5EED_CAFE_F00Du64;
    let mut cases = Vec::new();
    for (i, &bench) in benches.iter().enumerate() {
        let trace = bench.generate(&TraceSpec::new(3_000, 17 + i as u64));
        let mut shapes = vec![(1usize, 0usize), (8, 16)];
        for _ in 0..4 {
            let s = slices_options[(lcg(&mut state) as usize) % slices_options.len()];
            let b = banks_options[(lcg(&mut state) as usize) % banks_options.len()];
            shapes.push((s, b));
        }
        for (s, b) in shapes {
            let Ok(c) = SimConfig::with_shape(s, b) else {
                continue; // sampled an invalid corner of the lattice
            };
            cases.push((format!("grid/{bench}@{s}x{b}"), single(c, &trace)));
        }
    }
    cases.sort();
    cases.dedup();
    check("grid/", cases);
}

/// Bursty arrivals and a mid-run phase shift drive the operand network
/// and cache calendars far from benchmark steady state.
#[test]
fn stress_profiles() {
    let mut cases = Vec::new();
    for profile in [bursty_profile(), phase_shift_profile()] {
        let trace = ProgramGenerator::new(&profile, TraceSpec::new(5_000, 23))
            .expect("profiles validate")
            .generate_single();
        for (s, b) in [(1usize, 0usize), (2, 2), (4, 8), (8, 16)] {
            cases.push((
                format!("stress/{}@{s}x{b}", profile.name),
                single(cfg(s, b), &trace),
            ));
        }
    }
    check("stress/", cases);
}

/// Single-trace runs at (4,4), stress profiles included.
#[test]
fn single_trace_runs_at_4x4() {
    let mut traces = vec![
        Benchmark::Gcc.generate(&TraceSpec::new(4_000, 11)),
        Benchmark::Apache.generate(&TraceSpec::new(4_000, 13)),
    ];
    for profile in [bursty_profile(), phase_shift_profile()] {
        traces.push(
            ProgramGenerator::new(&profile, TraceSpec::new(4_000, 23))
                .expect("profiles validate")
                .generate_single(),
        );
    }
    let cases = traces
        .iter()
        .map(|t| (format!("single/{}@4x4", t.name()), single(cfg(4, 4), t)))
        .collect();
    check("single/", cases);
}

/// One longer gcc trace at the lattice corners and a small shape.
#[test]
fn gcc_at_three_shapes() {
    let trace = Benchmark::Gcc.generate(&TraceSpec::new(6_000, 7));
    let cases = [(1usize, 0usize), (2, 2), (8, 16)]
        .into_iter()
        .map(|(s, b)| (format!("smoke/gcc@{s}x{b}"), single(cfg(s, b), &trace)))
        .collect();
    check("smoke/", cases);
}

/// A verified run must commit the interpreter's values and its result
/// must not move.
#[test]
fn verified_run() {
    let trace = Benchmark::Gcc.generate(&TraceSpec::new(2_000, 5));
    let out = Simulator::new(cfg(4, 4))
        .expect("valid config")
        .run_with(&trace, RunOptions::new().verify());
    assert_eq!(
        out.verified,
        Some(true),
        "architectural verification failed"
    );
    check(
        "verified/",
        vec![(
            "verified/gcc@4x4".into(),
            sharing_json::to_string(&out.result),
        )],
    );
}

/// Per-instruction fetch-through-commit cycles, the finest observable.
#[test]
fn instruction_timings() {
    let trace = Benchmark::H264ref.generate(&TraceSpec::new(1_500, 13));
    let timings = Simulator::new(cfg(4, 4))
        .expect("valid config")
        .run_with(&trace, RunOptions::new().record_timings())
        .timings
        .expect("timings requested");
    let dump: String = timings.iter().map(|t| format!("{t:?}\n")).collect();
    check("timings/", vec![("timings/h264ref@4x4".into(), dump)]);
}

/// Cycle-profiler attributions: conserved per Slice, and pinned.
#[test]
fn profiler_attributions() {
    let mut cases = Vec::new();
    for bench in [Benchmark::Gcc, Benchmark::Mcf, Benchmark::Libquantum] {
        let trace = bench.generate(&TraceSpec::new(3_000, 7));
        for (s, b) in [(2usize, 2usize), (5, 8), (8, 16)] {
            let p = Simulator::new(cfg(s, b))
                .expect("valid config")
                .run_with(&trace, RunOptions::new().profile())
                .profile
                .expect("profiling requested");
            assert!(
                p.conserved(),
                "{bench} ({s},{b}): buckets must sum to cycles"
            );
            assert_eq!(p.per_slice.len(), s);
            cases.push((
                format!("profile/{bench}@{s}x{b}"),
                sharing_json::to_string(&p),
            ));
        }
    }
    check("profile/", cases);
}

/// A three-phase run on a reconfigured VCore, costs included.
#[test]
fn phased_run() {
    let trace = Benchmark::Gcc.generate(&TraceSpec::new(6_000, 1));
    let plan: Vec<(Trace, SimConfig)> = trace
        .split_phases(3)
        .into_iter()
        .zip([cfg(1, 2), cfg(4, 2), cfg(4, 8)])
        .collect();
    let result = run_phased_with(&plan, ReconfigCosts::paper()).expect("valid phases");
    check(
        "phased/",
        vec![(
            "phased/gcc@1x2,4x2,4x8".into(),
            sharing_json::to_string(&result),
        )],
    );
}

/// Every benchmark as a 4-thread VM over a shared, coherent L2.
#[test]
fn vm_benchmarks() {
    let spec = TraceSpec::new(3_000, 11);
    let cases = ALL_BENCHMARKS
        .iter()
        .map(|b| {
            (
                format!("vm/{b}@2x4"),
                vm_run(cfg(2, 4), &b.generate_threaded(&spec)),
            )
        })
        .collect();
    check("vm/", cases);
}

/// Different tenants contending through one shared L2 and directory.
#[test]
fn vm_coscheduled_tenants() {
    let spec = TraceSpec::new(3_000, 7);
    let tenants = [
        Benchmark::Omnetpp.generate(&spec),
        Benchmark::Libquantum.generate(&spec),
        Benchmark::Gcc.generate(&spec),
        Benchmark::Mcf.generate(&spec),
    ];
    let results = vm(cfg(2, 4)).run_coscheduled(&tenants);
    check(
        "cosched/",
        vec![(
            "cosched/omnetpp+libquantum+gcc+mcf@2x4".into(),
            sharing_json::to_string(&results),
        )],
    );
}

/// Odd barrier cadences, from one instruction to one chunk per run.
#[test]
fn vm_chunk_sizes() {
    let workload = Benchmark::Dedup.generate_threaded(&TraceSpec::new(2_500, 3));
    let cases = [1usize, 7, 333, 10_000]
        .into_iter()
        .map(|chunk| {
            let r = vm(cfg(2, 4)).with_chunk(chunk).run(&workload);
            (
                format!("chunk/dedup@2x4/{chunk}"),
                sharing_json::to_string(&r),
            )
        })
        .collect();
    check("chunk/", cases);
}

/// The stress profiles as threaded VMs.
#[test]
fn vm_stress_profiles() {
    let cases = [bursty_profile(), phase_shift_profile()]
        .into_iter()
        .map(|profile| {
            let workload = ProgramGenerator::new(&profile, TraceSpec::new(4_000, 23))
                .expect("profiles validate")
                .generate();
            (
                format!("vmstress/{}@2x4", profile.name),
                vm_run(cfg(2, 4), &workload),
            )
        })
        .collect();
    check("vmstress/", cases);
}

/// The `ssim dc --emit-example` scenario at seed 7 in both billing
/// modes. The digest of the event log is the log hash `ssim dc` prints.
#[test]
fn dc_example_log() {
    let sim = DcSim::new(Scenario::example_bursty()).expect("example validates");
    let cases = [BillingMode::Sharing, BillingMode::Fixed]
        .into_iter()
        .map(|mode| (format!("dc/{}", mode.name()), sim.run(mode, 7).log))
        .collect();
    check("dc/", cases);
}

/// One short sweep table: a single-trace and a PARSEC benchmark over all
/// 72 shapes.
#[test]
fn suite_surface_table() {
    let spec = ExperimentSpec {
        trace_len: 500,
        ..ExperimentSpec::quick()
    };
    let table = SuiteSurfaces::build_subset_with(
        spec,
        &[Benchmark::Gcc, Benchmark::Dedup],
        &TraceCache::new(),
        2,
    );
    check(
        "surface/",
        vec![(
            "surface/gcc+dedup/500".into(),
            sharing_json::to_string(&table),
        )],
    );
}
