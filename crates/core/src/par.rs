//! A minimal scoped-thread work queue for deterministic fan-out.
//!
//! Every sweep consumer (the CLI grid, `SuiteSurfaces`, the dc
//! simulator's surface build) runs the same shape of job: an indexed
//! task list whose results must come back **in task order** so rendered
//! tables and serialized caches are byte-identical no matter how many
//! workers ran. [`map_indexed`] is that loop: workers pull the next
//! index from an atomic counter, write results into their own slot, and
//! the caller gets a `Vec` in input order.
//!
//! [`bsp_loop`] is the intra-run twin (DESIGN.md §14): a persistent
//! pool of workers advancing bulk-synchronous rounds between barriers,
//! with a caller-side merge step in between — the machinery behind
//! `VmSimulator`'s sharded execution.
//!
//! std-only by design — the workspace builds offline with zero external
//! dependencies (DESIGN.md §5).
//!
//! # Example
//!
//! ```
//! use sharing_core::par;
//!
//! let squares = par::map_indexed(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Resolves a `--jobs`-style knob: `Some(n)` is used as given (minimum
/// 1), `None` sizes to the machine.
#[must_use]
pub fn resolve_jobs(jobs: Option<usize>) -> usize {
    match jobs {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
    }
}

/// Applies `f` to every task on up to `jobs` worker threads and returns
/// the results **in task order**. `f` receives `(index, &task)`.
///
/// With `jobs <= 1` (or a single task) everything runs inline on the
/// calling thread — no threads are spawned, and side effects (spans,
/// counters) happen in task order, exactly as a plain sequential loop.
/// With more workers the task order of side effects is unspecified, but
/// the returned `Vec` is always index-ordered, which is what makes
/// parallel sweeps byte-identical to sequential ones.
///
/// # Panics
///
/// Propagates the first worker panic with its original payload: the
/// remaining workers stop pulling new tasks, the scope joins, and the
/// panic resumes on the caller. (Without the catch, the scope's own
/// join would replace the payload with a generic "a scoped thread
/// panicked" — losing the actual failure message.)
pub fn map_indexed<T, R, F>(jobs: usize, tasks: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if jobs <= 1 || tasks.len() <= 1 {
        return tasks.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = jobs.min(tasks.len());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(task) = tasks.get(i) else { break };
                match catch_unwind(AssertUnwindSafe(|| f(i, task))) {
                    Ok(r) => *slots[i].lock().expect("par slot lock") = Some(r),
                    Err(payload) => {
                        stop.store(true, Ordering::Relaxed);
                        let mut slot = panicked.lock().expect("par panic slot");
                        slot.get_or_insert(payload);
                        break;
                    }
                }
            });
        }
    });
    if let Some(payload) = panicked.into_inner().expect("par panic slot") {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .expect("par slot lock")
                .unwrap_or_else(|| panic!("task {i} produced no result"))
        })
        .collect()
}

/// A persistent pool of `workers` scoped threads advancing
/// bulk-synchronous rounds (the VM worker threads' barrier protocol,
/// DESIGN.md §14).
///
/// Each iteration: `coordinate()` runs on the **calling thread** with
/// exclusive access to all shared state (the merge step — and, before
/// the first round, setup). If it returns `true`, every worker runs
/// `step(worker_index)` once, concurrently, between two barriers; then
/// the loop repeats. When `coordinate()` returns `false` the workers
/// shut down and the call returns. The compute and merge phases never
/// overlap, so `step` closures may partition shared state by worker
/// index (e.g. interior mutability locked only during compute) while
/// `coordinate` walks all of it.
///
/// With `workers <= 1` everything runs inline on the calling thread —
/// no threads, no barriers, byte-identical side-effect order to the
/// threaded form by construction.
///
/// # Panics
///
/// Propagates the first panic from `step` or `coordinate` with its
/// original payload after parking the pool (workers drain at the next
/// barrier rather than deadlocking on a missing participant).
pub fn bsp_loop<C, S>(workers: usize, mut coordinate: C, step: S)
where
    C: FnMut() -> bool,
    S: Fn(usize) + Sync,
{
    if workers <= 1 {
        while coordinate() {
            step(0);
        }
        return;
    }
    let barrier = Barrier::new(workers + 1);
    let stop = AtomicBool::new(false);
    let panicked: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let mut pending: Option<Box<dyn Any + Send>> = None;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let barrier = &barrier;
            let stop = &stop;
            let panicked = &panicked;
            let step = &step;
            scope.spawn(move || loop {
                barrier.wait(); // round start (or shutdown signal)
                if stop.load(Ordering::Acquire) {
                    break;
                }
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| step(w))) {
                    let mut slot = panicked.lock().expect("bsp panic slot");
                    slot.get_or_insert(payload);
                }
                barrier.wait(); // round end
            });
        }
        loop {
            let more = if pending.is_some() {
                false
            } else {
                match catch_unwind(AssertUnwindSafe(&mut coordinate)) {
                    Ok(m) => m,
                    Err(payload) => {
                        pending = Some(payload);
                        false
                    }
                }
            };
            if !more {
                stop.store(true, Ordering::Release);
                barrier.wait(); // release workers into the stop check
                break;
            }
            barrier.wait(); // open the compute phase
            barrier.wait(); // wait for every worker to finish it
            if let Some(payload) = panicked.lock().expect("bsp panic slot").take() {
                pending = Some(payload);
            }
        }
    });
    if let Some(payload) = pending {
        resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        let tasks: Vec<usize> = (0..100).collect();
        for jobs in [1, 2, 4, 16] {
            let out = map_indexed(jobs, &tasks, |i, &t| {
                assert_eq!(i, t);
                t * 10
            });
            assert_eq!(out, tasks.iter().map(|t| t * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let tasks: Vec<u64> = (0..57).map(|i| i * 31 + 7).collect();
        let seq = map_indexed(1, &tasks, |i, &t| t.wrapping_mul(i as u64 + 1));
        let par = map_indexed(8, &tasks, |i, &t| t.wrapping_mul(i as u64 + 1));
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_task_lists() {
        let none: Vec<u32> = vec![];
        assert!(map_indexed(4, &none, |_, &x| x).is_empty());
        assert_eq!(map_indexed(4, &[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        let tasks: Vec<usize> = (0..200).collect();
        let _ = map_indexed(6, &tasks, |_, &t| hits[t].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn resolve_jobs_floors_at_one() {
        assert_eq!(resolve_jobs(Some(0)), 1);
        assert_eq!(resolve_jobs(Some(3)), 3);
        assert!(resolve_jobs(None) >= 1);
    }

    #[test]
    fn worker_panic_propagates_with_its_payload() {
        let tasks: Vec<usize> = (0..64).collect();
        let err = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(4, &tasks, |_, &t| {
                assert!(t != 17, "task seventeen is cursed");
                t
            })
        }))
        .expect_err("the worker panic must reach the caller");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| (*err.downcast_ref::<&str>().unwrap_or(&"")).to_string());
        assert!(
            msg.contains("task seventeen is cursed"),
            "original panic payload must survive, got: {msg:?}"
        );
    }

    #[test]
    fn worker_panic_stops_remaining_tasks_early() {
        // After the panic is observed, workers stop pulling new indexes —
        // the queue must not be fully drained (with 200 tasks and the
        // panic at index 0, at most a handful of in-flight tasks finish).
        let done = AtomicUsize::new(0);
        let tasks: Vec<usize> = (0..200).collect();
        let _ = catch_unwind(AssertUnwindSafe(|| {
            map_indexed(2, &tasks, |_, &t| {
                if t == 0 {
                    panic!("early abort");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                done.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("must propagate");
        assert!(
            done.load(Ordering::Relaxed) < 200,
            "remaining tasks should have been abandoned"
        );
    }

    #[test]
    fn bsp_loop_rounds_are_barrier_separated() {
        // Every worker adds to its own cell during compute; the merge
        // must always observe a full round (all workers ran exactly
        // once) — a torn round means the barrier protocol leaks.
        for workers in [1usize, 2, 4, 8] {
            let cells: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            let mut round = 0usize;
            bsp_loop(
                workers,
                || {
                    for (w, c) in cells.iter().enumerate() {
                        assert_eq!(
                            c.load(Ordering::SeqCst),
                            round,
                            "worker {w} out of lockstep at round {round}"
                        );
                    }
                    round += 1;
                    round <= 5
                },
                |w| {
                    cells[w].fetch_add(1, Ordering::SeqCst);
                },
            );
            assert!(cells.iter().all(|c| c.load(Ordering::SeqCst) == 5));
        }
    }

    #[test]
    fn bsp_loop_propagates_step_panics() {
        for workers in [1usize, 4] {
            let mut rounds = 0;
            let err = catch_unwind(AssertUnwindSafe(|| {
                bsp_loop(
                    workers,
                    || {
                        rounds += 1;
                        rounds <= 3
                    },
                    |w| assert!(w != 0, "round two exploded"),
                );
            }))
            .expect_err("step panic must propagate");
            let msg = err
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_else(|| (*err.downcast_ref::<&str>().unwrap_or(&"")).to_string());
            assert!(msg.contains("round two exploded"), "got: {msg:?}");
        }
    }

    #[test]
    fn bsp_loop_propagates_coordinate_panics() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            bsp_loop(4, || panic!("merge failed"), |_w| {});
        }))
        .expect_err("coordinate panic must propagate");
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_default()
            .to_string();
        assert!(msg.contains("merge failed"), "got: {msg:?}");
    }

    #[test]
    fn bsp_loop_with_zero_rounds_spawns_and_joins_cleanly() {
        bsp_loop(8, || false, |_w| panic!("never runs"));
    }
}
