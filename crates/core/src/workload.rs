//! Named workloads and the one function that simulates them.
//!
//! A workload is a calibrated paper benchmark or a [`WorkloadProfile`].
//! Whether it runs on one VCore ([`Simulator`]) or as a multi-VCore VM
//! sharing an L2 ([`VmSimulator`], paper §5.3) follows from its thread
//! count; [`simulate`] makes that choice for every front end (the `ssim`
//! CLI, the daemon, and the market's performance surfaces).

use crate::config::SimConfig;
use crate::multi::VmSimulator;
use crate::sim::{RunOptions, Simulator};
use crate::stats::SimResult;
use sharing_obs::TraceBuffer;
use sharing_trace::{
    extra_profile, Benchmark, ThreadedTrace, Trace, TraceCache, TraceSpec, WorkloadProfile,
};
use std::fmt;
use std::sync::Arc;

/// What one simulation runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Workload {
    /// One of the calibrated paper benchmarks.
    Benchmark(Benchmark),
    /// A workload profile: an extra seeded one resolved by name, a
    /// user's file, or one sent inline to the daemon.
    Profile(Box<WorkloadProfile>),
}

impl Workload {
    /// Resolves a workload name: the paper suite first, then the extra
    /// seeded profiles (`bursty`, `phaseshift`). An extra resolves to its
    /// full profile, so anything keyed on the workload (the daemon's
    /// result cache) carries its calibration.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Benchmark::from_name(name)
            .map(Workload::Benchmark)
            .or_else(|| extra_profile(name).map(|p| Workload::Profile(Box::new(p))))
    }

    /// The workload's name, as results report it.
    #[must_use]
    pub fn name(&self) -> &str {
        match self {
            Workload::Benchmark(b) => b.name(),
            Workload::Profile(p) => &p.name,
        }
    }

    /// Whether the workload runs as a multi-VCore VM: a PARSEC benchmark
    /// or a profile with more than one thread.
    #[must_use]
    pub fn is_threaded(&self) -> bool {
        match self {
            Workload::Benchmark(b) => b.is_parsec(),
            Workload::Profile(p) => p.threads > 1,
        }
    }

    /// The workload's trace from `traces`: one stream for a single-thread
    /// workload, every thread's for a threaded one.
    ///
    /// # Errors
    ///
    /// [`SimulateError::EmptyTrace`] for `spec.len == 0`, and
    /// [`SimulateError::BadProfile`] for a profile that fails validation.
    pub fn trace(
        &self,
        spec: &TraceSpec,
        traces: &TraceCache,
    ) -> Result<WorkloadTrace, SimulateError> {
        if spec.len == 0 {
            return Err(SimulateError::EmptyTrace);
        }
        Ok(match (self, self.is_threaded()) {
            (Workload::Benchmark(b), true) => WorkloadTrace::Threaded(traces.threaded(*b, spec)),
            (Workload::Benchmark(b), false) => WorkloadTrace::Single(traces.single(*b, spec)),
            (Workload::Profile(p), true) => WorkloadTrace::Threaded(
                traces
                    .profile_threaded(p, spec)
                    .map_err(SimulateError::BadProfile)?,
            ),
            (Workload::Profile(p), false) => WorkloadTrace::Single(
                traces
                    .profile_single(p, spec)
                    .map_err(SimulateError::BadProfile)?,
            ),
        })
    }
}

/// A generated workload trace, as [`Workload::trace`] returns it.
#[derive(Clone, Debug)]
pub enum WorkloadTrace {
    /// A single-thread workload's one stream.
    Single(Arc<Trace>),
    /// A threaded workload's streams, one per VCore.
    Threaded(Arc<ThreadedTrace>),
}

/// Why [`simulate`] refused a run.
#[derive(Clone, Debug, PartialEq)]
pub enum SimulateError {
    /// The trace spec asks for zero instructions.
    EmptyTrace,
    /// The workload profile failed validation.
    BadProfile(String),
}

impl fmt::Display for SimulateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulateError::EmptyTrace => f.write_str("trace length must be positive (got len 0)"),
            SimulateError::BadProfile(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for SimulateError {}

/// Simulates `workload` on `cfg`, its trace drawn from `traces`.
///
/// A threaded workload runs on a [`VmSimulator`] advanced by
/// `vm_threads` worker threads (a throughput knob: results are
/// byte-identical for every value); a single-thread one runs on a
/// [`Simulator`]. With `obs`, the trace generation and the simulation
/// each get a wall-clock span, and a single-thread run also records its
/// logical-cycle span.
///
/// # Errors
///
/// As [`Workload::trace`].
///
/// # Panics
///
/// Panics if `cfg` is invalid; [`SimConfig`]'s constructors validate.
pub fn simulate(
    workload: &Workload,
    cfg: SimConfig,
    spec: &TraceSpec,
    traces: &TraceCache,
    vm_threads: usize,
    obs: Option<&TraceBuffer>,
) -> Result<SimResult, SimulateError> {
    let trace = {
        let _g = obs.map(|o| o.span("trace-gen", "ssim", 0));
        workload.trace(spec, traces)?
    };
    let _g = obs.map(|o| o.span(format!("simulate {}", workload.name()), "ssim", 0));
    Ok(match trace {
        WorkloadTrace::Threaded(t) => VmSimulator::new(cfg)
            .expect("validated config")
            .with_threads(vm_threads)
            .run(&t),
        WorkloadTrace::Single(t) => {
            let mut opts = RunOptions::new();
            if let Some(o) = obs {
                // The traced path also emits a logical-cycle span, so the
                // trace shows both wall time and simulated time.
                opts = opts.trace_to(o);
            }
            Simulator::new(cfg)
                .expect("validated config")
                .run_with(&t, opts)
                .result
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(len: usize) -> TraceSpec {
        TraceSpec::new(len, 3)
    }

    #[test]
    fn names_resolve_benchmarks_before_extra_profiles() {
        assert_eq!(
            Workload::from_name("gcc"),
            Some(Workload::Benchmark(Benchmark::Gcc))
        );
        let bursty = Workload::from_name("bursty").expect("extra profile");
        assert_eq!(
            bursty,
            Workload::Profile(Box::new(extra_profile("bursty").unwrap()))
        );
        assert_eq!(bursty.name(), "bursty");
        assert!(Workload::from_name("quiescent").is_none());
    }

    #[test]
    fn thread_count_picks_the_simulator() {
        let cfg = SimConfig::with_shape(2, 4).unwrap();
        let traces = TraceCache::new();
        let vm = Workload::Benchmark(Benchmark::Dedup);
        assert!(vm.is_threaded());
        assert!(!Workload::Benchmark(Benchmark::Mcf).is_threaded());
        assert!(!Workload::from_name("bursty").unwrap().is_threaded());
        let got = simulate(&vm, cfg, &spec(800), &traces, 2, None).unwrap();
        let want = VmSimulator::new(cfg)
            .unwrap()
            .run(&Benchmark::Dedup.generate_threaded(&spec(800)));
        assert_eq!(got, want);

        let single = Workload::Benchmark(Benchmark::Mcf);
        let got = simulate(&single, cfg, &spec(800), &traces, 2, None).unwrap();
        let want = Simulator::new(cfg)
            .unwrap()
            .run_with(&Benchmark::Mcf.generate(&spec(800)), RunOptions::new())
            .result;
        assert_eq!(got, want);
    }

    #[test]
    fn empty_and_invalid_workloads_are_errors_not_panics() {
        let cfg = SimConfig::with_shape(1, 2).unwrap();
        let traces = TraceCache::new();
        for w in [
            Workload::Benchmark(Benchmark::Gcc),
            Workload::Benchmark(Benchmark::Dedup),
            Workload::from_name("bursty").unwrap(),
        ] {
            assert_eq!(
                simulate(&w, cfg, &spec(0), &traces, 1, None),
                Err(SimulateError::EmptyTrace),
                "{}",
                w.name()
            );
        }
        let mut broken = WorkloadProfile::builder("broken").build();
        broken.chains = 0;
        let got = simulate(
            &Workload::Profile(Box::new(broken)),
            cfg,
            &spec(100),
            &traces,
            1,
            None,
        );
        assert!(matches!(got, Err(SimulateError::BadProfile(_))), "{got:?}");
        assert_eq!(traces.generations(), 0, "nothing was generated");
    }
}
