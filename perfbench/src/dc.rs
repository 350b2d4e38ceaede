//! `dc_market`: the `bursty-flash-crowd` example scenario scaled up in
//! epochs, chips and arrival rate, on synthetic surfaces so no
//! cycle-level simulation runs, once in each billing mode via
//! `DcSim::run`.

use crate::digest::{Digests, Ledger};
use crate::tracer::{Tracer, ROOT};
use crate::{setup_live_line, stats, variant, Layers, Measured, PassTimes, RequestPeaks, Setups};
use sharing_dc::{BillingMode, DcSim, Scenario};
use sharing_obs::Clock;
use std::time::Instant;

/// Name used in reports and `digests.json`.
pub const NAME: &str = "dc_market";

/// Market epochs per run.
pub const EPOCHS: usize = 400;

/// Chips in the fleet (the example has 4).
pub const CHIPS: usize = 16;

/// Requests (both billing modes) a run must complete, however short
/// `--seconds` is.
const MIN_PAIRS: usize = 3;

/// The example scaled to `epochs`: four times its chips and arrival
/// rates, with the flash crowd at the same relative place in the run.
#[must_use]
pub fn scenario(epochs: usize) -> Scenario {
    let mut sc = Scenario::example_bursty();
    let scale = CHIPS as f64 / sc.chips as f64;
    sc.arrivals.base_rate *= scale;
    sc.arrivals.burst_rate *= scale;
    sc.arrivals.burst_start = sc.arrivals.burst_start * epochs / sc.epochs;
    sc.arrivals.burst_len = sc.arrivals.burst_len * epochs / sc.epochs;
    sc.chips = CHIPS;
    sc.epochs = epochs;
    sc
}

/// The arrival seed of one input variant.
#[must_use]
pub fn arrival_seed(variant: u64) -> u64 {
    2014 + variant
}

/// Builds the simulator for [`scenario`]`(epochs)`: scenario validation
/// plus the surface catalog.
///
/// # Panics
///
/// Panics if the scaled scenario is invalid (a benchmark defect).
#[must_use]
pub fn build(epochs: usize) -> DcSim {
    DcSim::new(scenario(epochs)).expect("the scaled example scenario is valid")
}

/// Digest of one request: both modes' event-log hashes.
#[must_use]
pub fn digest(sharing: &str, fixed: &str) -> String {
    format!("{sharing}:{fixed}")
}

/// The untraced measurement. One request runs the scenario in both
/// billing modes over the same arrivals; request `i` draws the arrivals
/// of input variant `variant(seed + i)`, so every run walks the same
/// variants and only their order depends on the seed.
#[must_use]
pub fn measure(seed: u64, seconds: f64, digests: &Digests) -> Measured {
    let (mut setups, sim) = Setups::start(|| build(EPOCHS));
    let setup_live = setup_live_line();
    let mut ledger = Ledger::default();
    let (mut rates, mut times) = (Vec::new(), Vec::new());
    let mut peaks = RequestPeaks::default();
    let mut last = String::new();
    let start = Instant::now();
    while times.len() < MIN_PAIRS || start.elapsed().as_secs_f64() < seconds {
        let v = variant(seed.wrapping_add(times.len() as u64));
        let arrivals = arrival_seed(v);
        peaks.start();
        let t0 = Instant::now();
        let sharing = sim.run(BillingMode::Sharing, arrivals);
        let fixed = sim.run(BillingMode::Fixed, arrivals);
        let dt = t0.elapsed().as_secs_f64();
        peaks.finish();
        let epochs = sharing.records.len() + fixed.records.len();
        rates.push(epochs as f64 / dt);
        times.push(dt);
        last = digest(&sharing.log_hash(), &fixed.log_hash());
        ledger.digest(1, &last, digests.get(NAME, v));
        setups.again();
    }
    Measured {
        setup_s: setups.median_s(),
        peak_heap_mb: peaks.median_mb(),
        request_p50_ms: stats::median(&times) * 1e3,
        ledger,
        digest: last,
        report: vec![
            setup_live,
            ("dc_epochs_per_s".into(), stats::median(&rates), "epochs/s"),
            ("requests".into(), times.len() as f64, "count"),
        ],
        work_per_s: stats::median(&rates),
    }
}

/// The traced pass: one untraced request, then the same request with
/// `DcSim::run_traced` recording its logical work spans, which must
/// leave both event logs byte-identical.
///
/// # Errors
///
/// Returns a message when a traced run's log differs from the untraced
/// one.
pub fn traced(variant: u64, tracer: &Tracer, layers: &mut Layers) -> Result<PassTimes, String> {
    let seed = arrival_seed(variant);
    let request = || {
        let sim = build(EPOCHS);
        [
            sim.run(BillingMode::Sharing, seed).log_hash(),
            sim.run(BillingMode::Fixed, seed).log_hash(),
        ]
    };
    let reference = request();
    // Timed after a first request, like the traced request it is
    // compared with.
    let t0 = Instant::now();
    std::hint::black_box(request());
    let untraced_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let root = tracer.span(NAME, "bench", 0, ROOT);
    let (catalog_s, sim) = {
        let _s = tracer.span("dc.catalog_build", "dc", 0, root.id());
        let t = Instant::now();
        let sim = build(EPOCHS);
        (t.elapsed().as_secs_f64(), sim)
    };
    let logical_before = tracer.buffer().snapshot().len();
    let mut mode_s = [0.0; 2];
    for (k, mode) in [BillingMode::Sharing, BillingMode::Fixed]
        .into_iter()
        .enumerate()
    {
        let _s = tracer.span(format!("dc.run.{}", mode.name()), "dc", 0, root.id());
        let t = Instant::now();
        let out = sim.run_traced(mode, seed, Some(tracer.buffer()));
        mode_s[k] = t.elapsed().as_secs_f64();
        if out.log_hash() != reference[k] {
            return Err(format!(
                "{NAME}: traced {} run logged {}, untraced logged {}",
                mode.name(),
                out.log_hash(),
                reference[k]
            ));
        }
    }
    drop(root);
    let traced_s = t1.elapsed().as_secs_f64();

    let events = tracer.buffer().snapshot();
    let work = |phase: &str| -> f64 {
        events[logical_before..]
            .iter()
            .filter(|e| e.clock == Clock::Logical && e.name == phase)
            .map(|e| e.dur as f64)
            .sum()
    };
    layers.insert("dc.catalog_build_s".into(), catalog_s);
    layers.insert("dc.sharing_s".into(), mode_s[0]);
    layers.insert("dc.fixed_s".into(), mode_s[1]);
    layers.insert("dc.auction_work".into(), work("auction"));
    layers.insert("dc.placement_work".into(), work("placement"));
    layers.insert("dc.billing_work".into(), work("billing"));
    Ok(PassTimes {
        untraced_s,
        traced_s,
    })
}
