//! The benchmark's one command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless
//! ```
//!
//! With `--trace 0` it measures one workload end to end; with
//! `--trace 1` it runs the traced pass of every workload and reports the
//! per-layer metrics. Report lines come first; the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `--bless` rewrites `digests.json` from the current code.

use perfbench::digest::{Digests, Ledger};
use perfbench::host::{peak_rss_mb, Host};
use perfbench::tracer::{self, Tracer};
use perfbench::{
    dc, parsec, spec, ssimd, variant, Layers, TraceCounts, END_TO_END, LAYERS, PER_LAYER, VARIANTS,
    WORKLOADS,
};
use sharing_core::SimResult;
use sharing_json::Json;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Command {
    Run(Args),
    Bless,
}

fn parse_args() -> Result<Command, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--bless"] {
        return Ok(Command::Bless);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; choose one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Command::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn metrics_json(values: &[(&str, f64, &str)]) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

fn result_line(ledger: &Ledger, metrics: Json) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(ledger.failed == 0)),
        ("attempted", Json::Int(i128::from(ledger.attempted))),
        ("failed", Json::Int(i128::from(ledger.failed))),
        ("metrics", metrics),
    ])
    .to_string()
}

fn untraced(args: &Args, digests: &Digests) -> Result<(), String> {
    let v = variant(args.seed);
    let m = match args.workload.as_str() {
        spec::NAME => spec::measure(args.seed, args.seconds, digests),
        parsec::NAME => parsec::measure(v, args.seconds, digests),
        ssimd::NAME => ssimd::measure(args.seed, args.seconds, digests),
        dc::NAME => dc::measure(args.seed, args.seconds, digests),
        other => unreachable!("workload {other} was validated"),
    };
    for (name, value, unit) in &m.report {
        println!("metric {name} {value} {unit}");
    }
    println!("metric error_rate {} ratio", m.ledger.error_rate());
    println!("metric request_p50_ms {} ms", m.request_p50_ms);
    println!("digest {} {}", args.workload, m.digest);
    for note in &m.ledger.notes {
        println!("failure {note}");
    }
    let rss = peak_rss_mb().ok_or("cannot read the resident-set high-water mark")?;
    println!("metric peak_rss_mb {rss} MB");
    let values = [m.work_per_s, m.peak_heap_mb, m.setup_s];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    println!("{}", result_line(&m.ledger, metrics_json(&metrics)));
    Ok(())
}

fn sum(results: &[SimResult], f: impl Fn(&SimResult) -> u64) -> f64 {
    results.iter().map(f).sum::<u64>() as f64
}

fn simulated_counts(results: &[SimResult], layers: &mut Layers) {
    let l1d = sum(results, |r| r.mem.l1d.hits) / sum(results, |r| r.mem.l1d.accesses);
    let l2 = sum(results, |r| r.mem.l2.hits) / sum(results, |r| r.mem.l2.accesses);
    let counts = [
        ("mem.l1d_hit_ratio", l1d),
        ("mem.l2_accesses", sum(results, |r| r.mem.l2.accesses)),
        ("mem.l2_hit_ratio", l2),
        ("mem.dram_accesses", sum(results, |r| r.mem.memory_accesses)),
        (
            "mem.coherence_invalidations",
            sum(results, |r| r.mem.coherence_invalidations),
        ),
        (
            "mem.coherence_forwards",
            sum(results, |r| r.mem.coherence_forwards),
        ),
        ("noc.operand_msgs", sum(results, |r| r.operand_net.messages)),
        (
            "noc.remote_operand_requests",
            sum(results, |r| r.remote_operand_requests),
        ),
        ("noc.ls_sort_msgs", sum(results, |r| r.ls_sort_messages)),
        (
            "noc.rename_broadcasts",
            sum(results, |r| r.rename_broadcasts),
        ),
    ];
    for (name, value) in counts {
        layers.insert(name.into(), value);
    }
}

fn traced(args: &Args, digests: &Digests) -> Result<(), String> {
    let v = variant(args.seed);
    let tracer = Tracer::new(args.seed);
    let mut layers = Layers::new();
    let mut counts = TraceCounts::default();
    let mut results = Vec::new();
    let passes = [
        (
            spec::NAME,
            spec::traced(v, &tracer, &mut layers, &mut counts, &mut results)?,
        ),
        (
            parsec::NAME,
            parsec::traced(v, &tracer, &mut layers, &mut counts, &mut results)?,
        ),
        (
            ssimd::NAME,
            ssimd::traced(args.seed, &tracer, &mut layers, digests)?,
        ),
        (dc::NAME, dc::traced(v, &tracer, &mut layers)?),
    ];
    let spans = tracer.spans();
    layers.insert(
        "trace.gen_s".into(),
        tracer::total_s(&spans, "trace.single") + tracer::total_s(&spans, "trace.threaded"),
    );
    layers.insert("trace.generations".into(), counts.generations as f64);
    layers.insert(
        "trace.cache_hit_ratio".into(),
        counts.hits as f64 / (counts.hits + counts.misses) as f64,
    );
    simulated_counts(&results, &mut layers);
    let self_times = tracer::self_time_by_layer(&spans);
    for (layer, metric) in LAYERS {
        let t = self_times.get(layer).copied().unwrap_or(0.0);
        layers.insert(metric.into(), t);
    }
    let overhead: f64 = passes.iter().map(|(_, p)| p.traced_s - p.untraced_s).sum();
    layers.insert("bench.tracing_overhead".into(), overhead);
    for (name, p) in &passes {
        println!(
            "pass {name} untraced_s {} traced_s {}",
            p.untraced_s, p.traced_s
        );
    }

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    tracer
        .save(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("chrome_trace {}", path.display());

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = *layers
            .get(name)
            .ok_or_else(|| format!("traced run did not measure {name}"))?;
        println!("metric {name} {value} {unit}");
        metrics.push((name, value, unit));
    }
    let ledger = Ledger {
        attempted: passes.len() as u64,
        ..Ledger::default()
    };
    println!("{}", result_line(&ledger, metrics_json(&metrics)));
    Ok(())
}

fn bless() -> Result<(), String> {
    let mut d = Digests::default();
    for v in 0..VARIANTS {
        let s = spec::sweep(spec::experiment(v), &sharing_trace::TraceCache::new());
        d.set(spec::NAME, v, spec::digest(&s));
        let (round, _) = parsec::round(&parsec::generate(v));
        d.set(parsec::NAME, v, parsec::digest(&round));
        let refs: Vec<String> = ssimd::hot_set(v)
            .iter()
            .map(ssimd::JobSpec::reference)
            .collect();
        d.set(ssimd::NAME, v, ssimd::hot_digest(&refs));
        let sim = dc::build(dc::EPOCHS);
        let seed = dc::arrival_seed(v);
        let sharing = sim.run(sharing_dc::BillingMode::Sharing, seed).log_hash();
        let fixed = sim.run(sharing_dc::BillingMode::Fixed, seed).log_hash();
        d.set(dc::NAME, v, dc::digest(&sharing, &fixed));
        eprintln!("blessed variant {v}");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.json");
    std::fs::write(&path, d.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let command = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
                 perfbench --bless",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Bless => bless(),
        Command::Run(args) => {
            println!(
                "run workload {} seed {} variant {} seconds {} trace {}",
                args.workload,
                args.seed,
                variant(args.seed),
                args.seconds,
                u8::from(args.trace)
            );
            for line in Host::collect().lines() {
                println!("{line}");
            }
            let digests = Digests::recorded();
            if args.trace {
                traced(&args, &digests)
            } else {
                untraced(&args, &digests)
            }
        }
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
