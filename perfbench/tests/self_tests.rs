//! The benchmark's own checks: the percentile rule, digest failures,
//! the VM re-drive, and agreement between the code and
//! `BENCHMARK.json`.

use perfbench::digest::{Digests, Ledger};
use perfbench::tracer::{covered, self_time_by_layer, Rec, Tracer, ROOT};
use perfbench::{parsec, ssimd, stats, END_TO_END, PER_LAYER, VARIANTS, WORKLOADS};
use sharing_core::SimConfig;
use sharing_json::Json;
use sharing_trace::{Benchmark, TraceSpec};

#[test]
fn percentile_needs_ten_samples_beyond_it() {
    assert_eq!(stats::highest_supported(19), None);
    assert_eq!(stats::highest_supported(20), Some(50.0));
    assert_eq!(stats::highest_supported(999), Some(95.0));
    assert_eq!(stats::highest_supported(1_000), Some(99.0));
    assert_eq!(stats::highest_supported(9_999), Some(99.0));
    assert_eq!(stats::highest_supported(10_000), Some(99.9));
    assert_eq!(stats::beyond(1_000, 99.0), 10);
    assert!(stats::supported(1_010, 99.0));
    assert!(!stats::supported(999, 99.0));
}

#[test]
fn percentile_and_median_use_nearest_rank() {
    let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 99.0), 99.0);
    assert_eq!(stats::percentile(&v, 50.0), 50.0);
    assert_eq!(stats::median(&v), 50.5);
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
}

#[test]
fn every_workload_has_a_recorded_digest_per_variant() {
    let d = Digests::recorded();
    for w in WORKLOADS {
        for v in 0..VARIANTS {
            assert!(
                d.get(w, v).is_some_and(|h| !h.is_empty()),
                "{w} variant {v}"
            );
        }
    }
}

#[test]
fn a_corrupted_digest_counts_as_a_failure() {
    let recorded = Digests::recorded();
    let refs: Vec<String> = ssimd::hot_set(0)
        .iter()
        .map(ssimd::JobSpec::reference)
        .collect();
    let got = ssimd::hot_digest(&refs);
    let want = recorded.get(ssimd::NAME, 0).expect("recorded");

    let mut ledger = Ledger::default();
    assert!(
        ledger.digest(1, &got, Some(want)),
        "HEAD must match its record"
    );
    assert_eq!((ledger.attempted, ledger.failed), (1, 0));

    let mut corrupted = recorded.clone();
    let mut flipped: Vec<char> = want.chars().collect();
    flipped[0] = if flipped[0] == '0' { '1' } else { '0' };
    corrupted.set(ssimd::NAME, 0, flipped.into_iter().collect());
    assert!(!ledger.digest(1, &got, corrupted.get(ssimd::NAME, 0)));
    assert!(!ledger.digest(1, &got, None), "a missing record fails too");
    assert_eq!((ledger.attempted, ledger.failed), (3, 2));
    assert_eq!(ledger.notes.len(), 2);
}

#[test]
fn digests_round_trip_through_their_file_format() {
    let d = Digests::recorded();
    let again = Digests::parse(&d.to_json()).expect("parses");
    for w in WORKLOADS {
        for v in 0..VARIANTS {
            assert_eq!(d.get(w, v), again.get(w, v));
        }
    }
}

#[test]
fn vm_redrive_equals_vm_simulator_run() {
    let trace = Benchmark::Dedup.generate_threaded(&TraceSpec::new(3_000, 7));
    let tracer = Tracer::new(1);
    for banks in [4, 32] {
        let cfg = SimConfig::with_shape(parsec::SLICES, banks).expect("valid shape");
        let (redriven, counts) = parsec::redrive(cfg, &trace, &tracer, ROOT);
        let run = parsec::run_vm(banks, &trace);
        assert_eq!(redriven, run, "{banks} banks");
        assert_eq!(
            sharing_json::to_string(&redriven),
            sharing_json::to_string(&run)
        );
        assert_eq!(counts.barriers, 3, "3000 insts in 1000-inst chunks");
        assert_eq!(counts.forks, 4 * 3);
    }
    let spans = tracer.spans();
    assert!(spans.iter().any(|s| s.name == "vm.fork.b32"));
    assert!(spans.iter().all(|s| s.parent == ROOT));
}

#[test]
fn reply_payload_is_the_raw_result_bytes() {
    let line = r#"{"ok":true,"type":"result","cached":true,"result":{"a":1,"b":[2]}}"#;
    assert_eq!(ssimd::payload(line), Some(r#"{"a":1,"b":[2]}"#));
    assert_eq!(ssimd::payload(r#"{"ok":false,"code":"queue_full"}"#), None);
}

fn rec(id: u64, parent: u64, cat: &str, start_ns: u64, end_ns: u64) -> Rec {
    Rec {
        id,
        parent,
        name: format!("s{id}"),
        cat: cat.into(),
        track: 0,
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    assert_eq!(covered(vec![(10, 20), (15, 30), (50, 60)], 0, 55), 25);
    let spans = [
        rec(1, ROOT, "bench", 0, 100),
        // Two overlapping children cover [10, 40) of their parent.
        rec(2, 1, "engine", 10, 30),
        rec(3, 1, "engine", 20, 40),
        rec(4, 3, "json", 25, 35),
    ];
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["bench"], 70e-9);
    // 20 ns uncovered, plus 20 ns less the 10 ns its child covers.
    assert!((by_layer["engine"] - 30e-9).abs() < 1e-18);
    assert_eq!(by_layer["json"], 10e-9);
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k| m.get(k).and_then(Json::as_str).expect("string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let owned = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter().map(|&(n, u)| (n.into(), u.into())).collect()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert!(workloads.len() >= 2);
    assert!(workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())));
}
