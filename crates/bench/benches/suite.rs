//! Runs paper-suite targets by name (all of them, in suite order, when
//! none is given). The experiments live in `hawkeye_bench::suite` so
//! `hawkeye-report` can run the identical code in-process (DESIGN.md §12).
//!
//! `cargo bench -p hawkeye-bench --bench suite -- table1_fault_latency`
//!
//! `HAWKEYE_TRACE=1` also writes each target's `.trace.json` journal;
//! `HAWKEYE_OBS=1` turns on fleet telemetry (`fleet_slo.obs.json`).

use hawkeye_bench::Run;
use hawkeye_metrics::env;
use std::process::ExitCode;

fn main() -> ExitCode {
    match hawkeye_bench::suite::select(std::env::args().skip(1)) {
        Ok(targets) => {
            let threads = hawkeye_fleet::pool::worker_threads();
            let (trace, obs) = (env::flag("HAWKEYE_TRACE"), env::flag("HAWKEYE_OBS"));
            for target in targets {
                target.run(Run::new(threads, trace, obs)).print_and_write();
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(2)
        }
    }
}
