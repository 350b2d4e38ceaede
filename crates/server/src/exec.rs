//! Job execution: the bridge from protocol jobs to the simulator.
//!
//! Everything here is deterministic — same job, same bytes out — which is
//! the contract the result cache relies on.

use crate::cache::ResultCache;
use crate::metrics::Metrics;
use crate::protocol::{DcJob, RunJob};
use sharing_core::{SimConfig, SimResult};
use sharing_dc::DcSim;
use sharing_json::{Json, ToJson};
use sharing_trace::{TraceCache, TraceSpec};
use std::sync::atomic::Ordering;

/// Runs one job on a fresh simulator.
///
/// Traces come from the process-wide [`TraceCache`]: a daemon serving
/// repeated jobs for the same `(workload, len, seed)` generates the trace
/// once and every worker thread shares the same `Arc`.
///
/// # Errors
///
/// Returns a human-readable message for invalid shapes or profiles and
/// for a zero trace length; simulation itself is total.
pub fn simulate(job: &RunJob) -> Result<SimResult, String> {
    let cfg = SimConfig::with_shape(job.slices, job.banks).map_err(|e| e.to_string())?;
    let spec = TraceSpec::new(job.len, job.seed);
    sharing_core::simulate(&job.workload, cfg, &spec, TraceCache::global(), 1, None)
        .map_err(|e| e.to_string())
}

/// Runs a job through the result cache: on a hit, the stored payload is
/// returned verbatim (byte-identical to the fresh run that produced it).
/// Returns `(payload_json, was_cached)`.
///
/// # Errors
///
/// Propagates [`simulate`]'s message. Failures are not cached.
pub fn run_cached(
    cache: &ResultCache,
    metrics: &Metrics,
    job: &RunJob,
) -> Result<(String, bool), String> {
    let key = job.cache_key();
    if let Some(hit) = cache.get(&key) {
        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok((hit, true));
    }
    metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    let payload = sharing_json::to_string(&simulate(job)?);
    cache.insert(&key, &payload);
    Ok((payload, false))
}

/// Runs a datacenter-scenario job and serializes its totals: one
/// `Totals` object per mode run, under `"sharing"` / `"fixed"` keys,
/// plus the scenario name and seed.
///
/// # Errors
///
/// Returns the scenario validation message; simulation itself is total.
pub fn run_dc(job: &DcJob) -> Result<String, String> {
    let sim = DcSim::new(job.scenario.clone())?;
    let mut pairs: Vec<(&str, Json)> = vec![
        ("scenario", Json::Str(job.scenario.name.clone())),
        ("seed", Json::Int(i128::from(job.seed))),
    ];
    match job.mode {
        Some(mode) => {
            let totals = sim.run(mode, job.seed).totals();
            pairs.push((mode.name(), totals.to_json()));
        }
        None => {
            let cmp = sim.run_comparison(job.seed);
            pairs.push(("sharing", cmp.sharing.totals().to_json()));
            pairs.push(("fixed", cmp.fixed.totals().to_json()));
        }
    }
    Ok(Json::obj(pairs).to_string())
}

/// [`run_dc`] through the result cache, mirroring [`run_cached`]:
/// hits replay the stored payload verbatim. Returns
/// `(payload_json, was_cached)`.
///
/// # Errors
///
/// Propagates [`run_dc`]'s message. Failures are not cached.
pub fn run_dc_cached(
    cache: &ResultCache,
    metrics: &Metrics,
    job: &DcJob,
) -> Result<(String, bool), String> {
    let key = job.cache_key();
    if let Some(hit) = cache.get(&key) {
        metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
        return Ok((hit, true));
    }
    metrics.cache_misses.fetch_add(1, Ordering::Relaxed);
    let payload = run_dc(job)?;
    cache.insert(&key, &payload);
    Ok((payload, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobWorkload;
    use sharing_trace::Benchmark;

    fn job(len: usize, seed: u64) -> RunJob {
        RunJob {
            workload: JobWorkload::Benchmark(Benchmark::Gcc),
            slices: 2,
            banks: 2,
            len,
            seed,
        }
    }

    #[test]
    fn simulate_is_deterministic() {
        let a = sharing_json::to_string(&simulate(&job(600, 3)).unwrap());
        let b = sharing_json::to_string(&simulate(&job(600, 3)).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn bad_shape_is_an_error_not_a_panic() {
        let mut j = job(100, 1);
        j.slices = 0;
        assert!(simulate(&j).is_err());
        j.slices = 999;
        assert!(simulate(&j).is_err());
        j.slices = 1;
        j.len = 0;
        assert!(simulate(&j).is_err());
    }

    #[test]
    fn cached_payload_is_byte_identical_to_fresh() {
        let cache = ResultCache::new(16);
        let metrics = Metrics::new(1);
        let (fresh, was_cached) = run_cached(&cache, &metrics, &job(500, 9)).unwrap();
        assert!(!was_cached);
        let (hit, was_cached) = run_cached(&cache, &metrics, &job(500, 9)).unwrap();
        assert!(was_cached);
        assert_eq!(fresh, hit, "cache replay must be byte-identical");
        assert_eq!(metrics.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 1);
    }

    fn dc_job(mode: Option<sharing_dc::BillingMode>) -> DcJob {
        let mut sc = sharing_dc::Scenario::example_bursty();
        sc.chips = 2;
        sc.epochs = 8;
        sc.epoch_cycles = 10_000;
        DcJob {
            scenario: sc,
            seed: 5,
            mode,
        }
    }

    #[test]
    fn dc_payload_is_deterministic_and_cached() {
        let cache = ResultCache::new(8);
        let metrics = Metrics::new(1);
        let job = dc_job(None);
        let (fresh, c0) = run_dc_cached(&cache, &metrics, &job).unwrap();
        assert!(!c0);
        let (hit, c1) = run_dc_cached(&cache, &metrics, &job).unwrap();
        assert!(c1);
        assert_eq!(fresh, hit, "cache replay must be byte-identical");
        let v = Json::parse(&fresh).unwrap();
        assert!(v.get("sharing").is_some(), "comparison carries sharing");
        assert!(v.get("fixed").is_some(), "comparison carries fixed");
    }

    #[test]
    fn dc_single_mode_reports_only_that_mode() {
        let payload = run_dc(&dc_job(Some(sharing_dc::BillingMode::Sharing))).unwrap();
        let v = Json::parse(&payload).unwrap();
        assert!(v.get("sharing").is_some());
        assert!(v.get("fixed").is_none());
    }

    #[test]
    fn different_jobs_do_not_alias() {
        let cache = ResultCache::new(16);
        let metrics = Metrics::new(1);
        let (a, _) = run_cached(&cache, &metrics, &job(500, 1)).unwrap();
        let (b, _) = run_cached(&cache, &metrics, &job(500, 2)).unwrap();
        assert_ne!(a, b, "different seeds are different cache entries");
        assert_eq!(metrics.cache_misses.load(Ordering::Relaxed), 2);
    }
}
