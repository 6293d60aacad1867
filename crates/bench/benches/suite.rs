//! Runs paper-suite targets by name (all of them, in suite order, when
//! none is given). The experiments live in `hawkeye_bench::suite` so
//! `hawkeye-report` can run the identical code in-process (DESIGN.md §12).
//!
//! `cargo bench -p hawkeye-bench --bench suite -- table1_fault_latency`
//!
//! Each target writes its summary and `.trace.json` journal (and
//! `fleet_slo` its `.obs.json` telemetry document) exactly as
//! `hawkeye-report` does.

use hawkeye_bench::Run;
use std::process::ExitCode;

fn main() -> ExitCode {
    match hawkeye_bench::suite::select(std::env::args().skip(1)) {
        Ok(targets) => {
            let threads = hawkeye_fleet::pool::worker_threads();
            for target in targets {
                target.run(Run::new(threads)).print_and_write();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(2)
        }
    }
}
