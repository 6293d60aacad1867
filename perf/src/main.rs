//! `hawkeye-perf`: the simulator's host-time benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perf/Cargo.toml -- \
//!     [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! Prints a table per workload, then, as the last line of standard
//! output, one JSON object: `{"correct", "attempted", "failed",
//! "metrics": {<name>: {"value", "unit"}}}`. With several workloads the
//! metric names are prefixed `<workload>/`. Exits 1 when an output check
//! failed and 2 on a usage or host error.

use hawkeye_bench::Json;
use hawkeye_perf::harness::{self, Options, WorkloadResult, DEFAULT_SECONDS};
use hawkeye_perf::workloads::{Scale, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: hawkeye-perf [--workload <name>|all] [--seed N] [--seconds S] [--trace 0|1] [--quick]
workloads: pair_fragmented btree_4k stencil_huge fault_churn (default: all, interleaved)";

fn value<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workloads: Workload::ALL.to_vec(),
        seed: 7,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter().map(String::as_str).peekable();
    while let Some(flag) = it.next() {
        match flag {
            "--workload" => {
                opts.workloads = match value(&mut it, flag)? {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                }
            }
            "--seed" => {
                opts.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            // `--trace 0|1`; a bare `--trace` switches tracing on.
            "--trace" => {
                opts.trace = it.next_if(|v| *v == "0" || *v == "1") != Some("0");
            }
            "--quick" => opts.scale = Scale::Quick,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn print_table(opts: &Options, r: &WorkloadResult) {
    let kind = if opts.trace { "traced" } else { "untraced" };
    println!(
        "== {} (seed {}, {kind}, {} samples, {} of {} repetitions failed) ==",
        r.workload.name(),
        opts.seed,
        r.samples,
        r.failed,
        r.attempted
    );
    for (d, v) in &r.metrics {
        println!("  {:<30} {:>16.6} {}", d.name, v, d.unit);
    }
    if let Some(share) = r.layer_sum_share {
        println!(
            "  per-layer self times sum to {:.2}% of the median traced repetition",
            share * 100.0
        );
    }
    for f in &r.failures {
        eprintln!("FAIL {}: {f}", r.workload.name());
    }
}

fn result_line(results: &[WorkloadResult]) -> (bool, String) {
    let single = results.len() == 1;
    let mut metrics = Json::obj(vec![]);
    for r in results {
        for (d, v) in &r.metrics {
            let name = if single {
                d.name.to_string()
            } else {
                format!("{}/{}", r.workload.name(), d.name)
            };
            metrics.push(
                &name,
                Json::obj(vec![("value", Json::num(*v)), ("unit", Json::str(d.unit))]),
            );
        }
    }
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    let correct = failed == 0 && results.iter().all(|r| r.samples > 0);
    let line = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(attempted)),
        ("failed", Json::int(failed)),
        ("metrics", metrics),
    ]);
    (correct, line.to_string())
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // These overrides change what the simulator computes; a benchmark run
    // under them would measure a different program.
    for var in ["HAWKEYE_CORES", "HAWKEYE_NO_EVENT_SKIP"] {
        if std::env::var_os(var).is_some() {
            eprintln!("{var} is set; unset it to benchmark the default configuration");
            return ExitCode::from(2);
        }
    }
    let (results, spans) = harness::run(&opts, epoch);
    if opts.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("target"), PathBuf::from);
        let path = dir.join("perf").join("spans.json");
        match spans.write(&path) {
            Ok(()) => eprintln!("hawkeye-perf: wrote {}", path.display()),
            Err(e) => {
                eprintln!("hawkeye-perf: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    for r in &results {
        print_table(&opts, r);
    }
    let (correct, line) = result_line(&results);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
