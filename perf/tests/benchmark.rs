//! The benchmark measures what it claims to: wrappers do not change the
//! simulation, repetitions compute identical outputs, and every printed
//! metric is one `BENCHMARK.json` declares.

use hawkeye_analyze::json::{parse, Value};
use hawkeye_perf::harness::{self, expected_digest, Options, DEFAULT_SECONDS};
use hawkeye_perf::metrics::{Def, END_TO_END, PER_LAYER};
use hawkeye_perf::workloads::{Probe, Scale, Workload};
use std::time::Instant;

const SEED: u64 = 7;

fn digest(w: Workload, probe: &mut Probe) -> u64 {
    let out = w.run(SEED, Scale::Quick, probe);
    assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
    out.digest
}

#[test]
fn wrappers_forward_every_call() {
    for w in Workload::ALL {
        let bare = digest(w, &mut Probe::bare());
        let wrapped = digest(w, &mut Probe::traced(1 << 16));
        assert_eq!(
            bare,
            wrapped,
            "{}: wrapping the policy and workloads changed the simulation",
            w.name()
        );
    }
}

#[test]
fn digests_are_stable_across_repetitions() {
    for w in Workload::ALL {
        let mut first = Probe::bare();
        first.conservation = true;
        let a = digest(w, &mut first);
        let b = digest(w, &mut Probe::bare());
        assert_eq!(
            a,
            b,
            "{}: two repetitions computed different outputs",
            w.name()
        );
        if let Some(want) = expected_digest(w, Scale::Quick, SEED) {
            assert_eq!(
                a,
                want,
                "{}: digest differs from expected_digests.txt",
                w.name()
            );
        }
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("metric has name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn pairs(defs: &[Def]) -> Vec<(String, String)> {
    defs.iter()
        .map(|d| (d.name.to_string(), d.unit.to_string()))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_definitions_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared(&doc, "per_layer"), pairs(&PER_LAYER));
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    for d in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name {:?}", d.name);
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_f64),
        Some(DEFAULT_SECONDS)
    );
}

#[test]
fn quick_runs_print_every_declared_metric() {
    for trace in [false, true] {
        let opts = Options {
            workloads: Workload::ALL.to_vec(),
            seed: SEED,
            seconds: 1.0,
            trace,
            scale: Scale::Quick,
        };
        let (results, _) = harness::run(&opts, Instant::now());
        let defs: &[Def] = if trace { &PER_LAYER } else { &END_TO_END };
        for r in results {
            assert_eq!(r.failed, 0, "{}: {:?}", r.workload.name(), r.failures);
            let printed: Vec<Def> = r.metrics.iter().map(|(d, _)| *d).collect();
            assert_eq!(printed, defs, "{}", r.workload.name());
            for (d, v) in &r.metrics {
                assert!(
                    v.is_finite() && *v >= 0.0,
                    "{} {} = {v}",
                    r.workload.name(),
                    d.name
                );
                if !trace {
                    assert!(*v > 0.0, "{} {} reads zero", r.workload.name(), d.name);
                }
            }
            if let Some(share) = r.layer_sum_share {
                assert!(
                    (share - 1.0).abs() <= 0.05,
                    "{}: layer self times cover {share}",
                    r.workload.name()
                );
            }
        }
    }
}
