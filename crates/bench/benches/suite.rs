//! Runs paper-suite targets by name (all of them, in suite order, when
//! none is given). The experiments live in `hawkeye_bench::suite` so
//! `hawkeye-report` can run the identical code in-process (DESIGN.md §12).
//!
//! `cargo bench -p hawkeye-bench --bench suite -- table1_fault_latency`

use std::process::ExitCode;

fn main() -> ExitCode {
    match hawkeye_bench::suite::select(std::env::args().skip(1)) {
        Ok(targets) => {
            for target in targets {
                hawkeye_bench::suite::run_main(target);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("suite: {e}");
            ExitCode::from(2)
        }
    }
}
