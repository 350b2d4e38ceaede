//! Multi-VCore Virtual Machines: several VCores sharing an L2 and kept
//! coherent by the L2 directory (paper §3.5, §5.3).
//!
//! The paper runs PARSEC with "four threads on four equally configured
//! VCores which share an L2 Cache". This module composes one
//! [`VCoreEngine`] per thread over a shared [`MemorySystem`], advancing
//! the threads in fixed instruction chunks between deterministic
//! barriers (DESIGN.md §14):
//!
//! 1. **compute** — every engine runs its next chunk against a *fork*
//!    of the shared memory system ([`MemorySystem::fork`]): a
//!    copy-on-write overlay that reads the barrier state in place and
//!    copies only the L2 sets and directory entries the engine touches,
//!    recording the beyond-L1 accesses it makes;
//! 2. **merge** — at the barrier, once every fork is dropped, the
//!    recorded access streams are replayed into the authoritative
//!    memory system in VCore-index order (in place: nothing shares the
//!    state any more), and the inter-VCore L1 invalidations that replay
//!    produces are applied in queue order.
//!
//! Because a fork only ever sees "state at the last barrier plus this
//! engine's own accesses", and the merge order is fixed, the result is
//! byte-identical no matter how many worker threads ran the compute
//! phase — which is what lets [`VmSimulator::with_threads`] parallelize
//! a single run across cores without giving up determinism.

use crate::config::{ConfigError, SimConfig};
use crate::engine::{MemAccess, MemorySystem, VCoreEngine};
use crate::par;
use crate::stats::SimResult;
use sharing_isa::DynInst;
use sharing_trace::ThreadedTrace;
use std::sync::{Mutex, RwLock};

/// Default interleaving granularity, in instructions per thread per turn.
pub const DEFAULT_CHUNK: usize = 1_000;

/// A VM of `t` single-thread VCores sharing one L2.
///
/// Runs on one host thread by default; [`VmSimulator::with_threads`]
/// spreads the VCores over more without changing a byte of the result.
///
/// # Example
///
/// ```
/// use sharing_core::{SimConfig, VmSimulator};
/// use sharing_trace::{Benchmark, TraceSpec};
///
/// let cfg = SimConfig::with_shape(2, 4)?; // per VCore: 2 Slices; VM L2: 256 KB
/// let workload = Benchmark::Dedup.generate_threaded(&TraceSpec::new(2_000, 5));
/// let result = VmSimulator::new(cfg)?.run(&workload);
/// assert!(result.ipc() > 0.0);
/// // Worker threads are a throughput knob only.
/// assert_eq!(VmSimulator::new(cfg)?.with_threads(2).run(&workload), result);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct VmSimulator {
    cfg: SimConfig,
    chunk: usize,
    threads: usize,
}

/// One VCore's barrier-to-barrier state: its engine, its instruction
/// stream and cursor, and the memory accesses its last compute phase
/// recorded (replayed by the merge step, then cleared).
struct Lane<'a> {
    engine: VCoreEngine,
    insts: &'a [DynInst],
    cursor: usize,
    log: Vec<MemAccess>,
}

impl VmSimulator {
    /// Creates a VM simulator. Every VCore gets the `cfg` Slice count; the
    /// configured L2 banks form the *shared* VM-level L2.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid.
    pub fn new(cfg: SimConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(VmSimulator {
            cfg,
            chunk: DEFAULT_CHUNK,
            threads: 1,
        })
    }

    /// Sets how many worker threads advance the VM's VCores between
    /// barriers (default 1; minimum 1; capped at the VCore count). A
    /// pure throughput knob: the barrier protocol makes the result
    /// byte-identical for every worker count, which
    /// `tests/sharded_equiv.rs` pins across the whole suite.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Overrides the interleaving chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    #[must_use]
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        self.chunk = chunk;
        self
    }

    /// The barrier loop shared by [`VmSimulator::run`] and
    /// [`VmSimulator::run_coscheduled`]: builds one engine per entry of
    /// `streams`, advances them chunkwise over forks of `mem`, and
    /// merges the access streams back in VCore order at every barrier.
    fn drive(&self, mem: MemorySystem, streams: &[&[DynInst]]) -> (Vec<VCoreEngine>, MemorySystem) {
        let lanes: Vec<Mutex<Lane>> = streams
            .iter()
            .enumerate()
            .map(|(v, insts)| {
                Mutex::new(Lane {
                    engine: VCoreEngine::new(self.cfg, v),
                    insts,
                    cursor: 0,
                    log: Vec::new(),
                })
            })
            .collect();
        let workers = self.threads.min(lanes.len().max(1));
        let mem = RwLock::new(mem);
        let mut inval_scratch: Vec<(usize, u64)> = Vec::new();
        par::bsp_loop(
            workers,
            // Merge (caller thread, exclusive): replay every lane's
            // recorded accesses in VCore order, then hand the coherence
            // invalidations that replay produced to their target L1s.
            || {
                let mut m = mem.write().expect("vm mem lock");
                for lane in &lanes {
                    let mut lane = lane.lock().expect("vm lane lock");
                    m.replay(&lane.log);
                    lane.log.clear();
                }
                std::mem::swap(&mut inval_scratch, &mut m.pending_invals);
                drop(m);
                for (v, line) in inval_scratch.drain(..) {
                    if v < lanes.len() {
                        let mut lane = lanes[v].lock().expect("vm lane lock");
                        lane.engine.invalidate_line(line);
                    }
                }
                lanes.iter().any(|lane| {
                    let lane = lane.lock().expect("vm lane lock");
                    lane.cursor < lane.insts.len()
                })
            },
            // Compute: each worker owns the lanes with `tid % workers ==
            // w`, so lane locks never contend; the shared memory system
            // is only read (forked).
            |w| {
                for (tid, lane) in lanes.iter().enumerate() {
                    if tid % workers != w {
                        continue;
                    }
                    let mut lane = lane.lock().expect("vm lane lock");
                    let start = lane.cursor;
                    if start >= lane.insts.len() {
                        continue;
                    }
                    let end = (start + self.chunk).min(lane.insts.len());
                    let mut fork = mem.read().expect("vm mem lock").fork();
                    let insts = lane.insts;
                    lane.engine.run_chunk(&mut fork, &insts[start..end]);
                    lane.cursor = end;
                    lane.log = fork.take_log();
                }
            },
        );
        let engines = lanes
            .into_iter()
            .map(|lane| lane.into_inner().expect("vm lane lock").engine)
            .collect();
        (engines, mem.into_inner().expect("vm mem lock"))
    }

    /// Co-schedules *different* workloads, one per VCore, over the shared
    /// L2 and directory — the datacenter-interference setting the paper's
    /// §6 cites ("sharing last-level cache and DRAM bandwidth degrades
    /// responsiveness of workloads"). Returns one result per workload, so
    /// each tenant's slowdown under contention is visible individually.
    ///
    /// # Panics
    ///
    /// Panics if `workloads` is empty.
    #[must_use]
    pub fn run_coscheduled(&self, workloads: &[sharing_trace::Trace]) -> Vec<SimResult> {
        assert!(!workloads.is_empty(), "at least one workload required");
        let mut mem = MemorySystem::shared(self.cfg.l2_banks(), self.cfg.mem.memory_delay);
        if workloads.len() == 1 {
            mem.coherent = false;
        }
        let streams: Vec<&[DynInst]> = workloads.iter().map(sharing_trace::Trace::insts).collect();
        let (engines, mem) = self.drive(mem, &streams);
        let mut results: Vec<SimResult> = engines
            .into_iter()
            .zip(workloads)
            .map(|(e, w)| e.finish(w.name()))
            .collect();
        for r in &mut results {
            VCoreEngine::absorb_mem_stats(r, &mem);
        }
        results
    }

    /// Runs all threads to completion; the VM finishes when its slowest
    /// thread does (barrier semantics, matching the paper's use of total
    /// benchmark runtime).
    #[must_use]
    pub fn run(&self, workload: &ThreadedTrace) -> SimResult {
        let threads = workload.thread_count();
        let mut mem = MemorySystem::shared(self.cfg.l2_banks(), self.cfg.mem.memory_delay);
        if threads == 1 {
            mem.coherent = false;
        }
        let streams: Vec<&[DynInst]> = workload
            .threads()
            .iter()
            .map(sharing_trace::Trace::insts)
            .collect();
        let (engines, mem) = self.drive(mem, &streams);
        // Aggregate: VM time = slowest thread; instruction counts sum.
        let mut cycles = 0u64;
        let mut total = SimResult {
            workload: workload.name().to_string(),
            shape: Some(self.cfg.shape()),
            ..SimResult::default()
        };
        for engine in engines {
            cycles = cycles.max(engine.cycles());
            let r = engine.finish(workload.name());
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
        VCoreEngine::absorb_mem_stats(&mut total, &mem);
        crate::sim::observe_run(&total);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sharing_trace::{Benchmark, TraceSpec};

    #[test]
    fn four_threads_finish_and_cohere() {
        let cfg = SimConfig::with_shape(2, 4).unwrap();
        let w = Benchmark::Dedup.generate_threaded(&TraceSpec::new(3_000, 11));
        let r = VmSimulator::new(cfg).unwrap().run(&w);
        assert_eq!(r.instructions, 4 * 3_000);
        assert!(r.cycles > 0);
        // dedup has a 20% shared-access fraction: coherence must fire.
        assert!(
            r.mem.coherence_invalidations + r.mem.coherence_forwards > 0,
            "expected coherence traffic"
        );
    }

    #[test]
    fn single_thread_vm_matches_plain_simulator_closely() {
        let cfg = SimConfig::with_shape(2, 2).unwrap();
        let t = Benchmark::Gcc.generate(&TraceSpec::new(3_000, 2));
        let tt = sharing_trace::ThreadedTrace::single(t.clone());
        let vm = VmSimulator::new(cfg).unwrap().run(&tt);
        let single = crate::Simulator::new(cfg)
            .unwrap()
            .run_with(&t, crate::RunOptions::new())
            .result;
        assert_eq!(vm.instructions, single.instructions);
        // Chunked execution may split a fetch group at a chunk boundary,
        // shifting timing by a cycle or two.
        let diff = vm.cycles.abs_diff(single.cycles);
        assert!(
            diff * 100 <= single.cycles,
            "no coherence → near-identical timing (vm {} vs {})",
            vm.cycles,
            single.cycles
        );
    }

    #[test]
    fn vm_is_deterministic() {
        let cfg = SimConfig::with_shape(2, 4).unwrap();
        let w = Benchmark::Ferret.generate_threaded(&TraceSpec::new(2_000, 4));
        let a = VmSimulator::new(cfg).unwrap().run(&w);
        let b = VmSimulator::new(cfg).unwrap().run(&w);
        assert_eq!(a, b);
    }

    #[test]
    fn worker_count_cannot_change_the_result() {
        // The worker-count invariant in miniature (the full
        // 15-benchmark × {workers} sweep lives in tests/sharded_equiv.rs).
        let cfg = SimConfig::with_shape(2, 4).unwrap();
        let w = Benchmark::Dedup.generate_threaded(&TraceSpec::new(2_000, 8));
        let base = VmSimulator::new(cfg).unwrap().with_threads(1).run(&w);
        for threads in [2usize, 4, 7] {
            let r = VmSimulator::new(cfg).unwrap().with_threads(threads).run(&w);
            assert_eq!(base, r, "{threads} workers diverged from 1 worker");
        }
    }

    #[test]
    fn coscheduled_worker_count_cannot_change_the_result() {
        let spec = TraceSpec::new(2_000, 6);
        let a = Benchmark::Gcc.generate(&spec);
        let b = Benchmark::Mcf.generate(&spec);
        let c = Benchmark::Libquantum.generate(&spec);
        let cfg = SimConfig::with_shape(1, 4).unwrap();
        let tenants = [a, b, c];
        let base = VmSimulator::new(cfg)
            .unwrap()
            .with_threads(1)
            .run_coscheduled(&tenants);
        for threads in [2usize, 3, 8] {
            let r = VmSimulator::new(cfg)
                .unwrap()
                .with_threads(threads)
                .run_coscheduled(&tenants);
            assert_eq!(base, r, "{threads} workers diverged");
        }
    }

    #[test]
    fn parsec_scaling_is_bounded() {
        // Per-thread ILP of ~2 chains should bound slice scaling near 2x
        // (paper §5.3: "the speedup is bounded by 2").
        let w = Benchmark::Swaptions.generate_threaded(&TraceSpec::new(4_000, 9));
        let one = VmSimulator::new(SimConfig::with_shape(1, 4).unwrap())
            .unwrap()
            .run(&w);
        let eight = VmSimulator::new(SimConfig::with_shape(8, 4).unwrap())
            .unwrap()
            .run(&w);
        let speedup = eight.ipc() / one.ipc();
        assert!(
            speedup < 3.0,
            "PARSEC speedup should be bounded, got {speedup:.2}"
        );
    }

    #[test]
    fn coscheduling_inflicts_measurable_interference() {
        // A cache-sensitive tenant co-runs with a streaming bully on one
        // shared 256KB L2 vs running alone on the same system.
        let spec = TraceSpec::new(6_000, 21);
        let victim = Benchmark::Omnetpp.generate(&spec);
        let bully = Benchmark::Libquantum.generate(&spec);
        let cfg = SimConfig::with_shape(2, 4).unwrap();
        let vm = VmSimulator::new(cfg).unwrap();
        let alone = vm.run_coscheduled(std::slice::from_ref(&victim));
        let together = vm.run_coscheduled(&[victim.clone(), bully]);
        assert_eq!(alone[0].instructions, together[0].instructions);
        assert!(
            together[0].cycles > alone[0].cycles,
            "contention must cost the victim cycles: {} vs {}",
            together[0].cycles,
            alone[0].cycles
        );
    }

    #[test]
    fn coscheduled_results_are_per_tenant() {
        let spec = TraceSpec::new(3_000, 4);
        let a = Benchmark::Gcc.generate(&spec);
        let b = Benchmark::Hmmer.generate(&spec);
        let cfg = SimConfig::with_shape(1, 2).unwrap();
        let results = VmSimulator::new(cfg).unwrap().run_coscheduled(&[a, b]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].workload, "gcc");
        assert_eq!(results[1].workload, "hmmer");
        assert!(results.iter().all(|r| r.instructions == 3_000));
    }

    #[test]
    fn vm_aggregates_operand_network_traffic() {
        // Multi-Slice VCores exchange operands over the SON; the VM
        // total must carry the summed per-engine network counters
        // instead of dropping them.
        let cfg = SimConfig::with_shape(4, 4).unwrap();
        let w = Benchmark::Ferret.generate_threaded(&TraceSpec::new(2_000, 3));
        let r = VmSimulator::new(cfg).unwrap().run(&w);
        assert!(
            r.operand_net.messages > 0,
            "expected operand-network messages in the VM total"
        );
    }

    #[test]
    #[should_panic(expected = "chunk must be positive")]
    fn zero_chunk_rejected() {
        let _ = VmSimulator::new(SimConfig::with_shape(1, 1).unwrap())
            .unwrap()
            .with_chunk(0);
    }
}
