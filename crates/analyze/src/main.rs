//! CLI for [`hawkeye_analyze`]: load one or more `.trace.json` journals
//! and print their reports.
//!
//! ```text
//! hawkeye-analyze [--check] <file.trace.json>...
//! ```
//!
//! `--check` turns the run into a gate (used by `scripts/ci.sh`): each
//! failure is reported to stderr with the gate that tripped —
//! `gate=parse` (unreadable or malformed journal), `gate=missing-samples`
//! (no `cycle_sample` events: the attribution pipeline silently off is a
//! failure, not a pass), or `gate=residue` (unattributed cycles on a
//! scheduler-driven machine) — and the exit code identifies the
//! most severe gate tripped across all files (see [`usage`]).

use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: hawkeye-analyze [--check] <file.trace.json>...\n\
     \n\
     Prints per-scenario cycle attribution, fault/promotion latency\n\
     histograms, and MMU-overhead-over-time reconstructed from a bench\n\
     trace journal (produced by HAWKEYE_TRACE=1 cargo bench ...).\n\
     \n\
     --check   gate mode: verify every journal parses, carries\n\
     \x20         cycle_sample events, and attributes cycles exactly;\n\
     \x20         failures name the gate (parse / missing-samples /\n\
     \x20         residue) on stderr\n\
     \n\
     exit codes:\n\
     \x20  0   all files passed\n\
     \x20  2   usage error (no input files)\n\
     \x20  3   gate=parse: a file was unreadable or malformed\n\
     \x20  4   gate=missing-samples: a journal has no cycle_sample events\n\
     \x20  5   gate=residue: a machine left unattributed cycles\n\
     \n\
     When several gates trip across the file list the lowest code wins\n\
     (parse failures outrank missing samples outrank residue).\n"
}

/// Which gates tripped, across all input files.
#[derive(Default)]
struct Gates {
    parse: bool,
    missing_samples: bool,
    residue: bool,
}

impl Gates {
    fn exit(&self) -> ExitCode {
        if self.parse {
            ExitCode::from(3)
        } else if self.missing_samples {
            ExitCode::from(4)
        } else if self.residue {
            ExitCode::from(5)
        } else {
            ExitCode::SUCCESS
        }
    }
}

fn main() -> ExitCode {
    let mut check = false;
    let mut paths: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--check" => check = true,
            "--help" | "-h" => {
                print!("{}", usage());
                return ExitCode::SUCCESS;
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        eprint!("{}", usage());
        return ExitCode::from(2);
    }
    let mut gates = Gates::default();
    for path in &paths {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("hawkeye-analyze: {path}: gate=parse: {e}");
                gates.parse = true;
                continue;
            }
        };
        let doc = match hawkeye_trace::parse_trace(&text) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("hawkeye-analyze: {path}: gate=parse: {e}");
                gates.parse = true;
                continue;
            }
        };
        print!("{}", hawkeye_analyze::report(&doc));
        if check {
            let audit = hawkeye_analyze::residues(&doc);
            let mut file_ok = true;
            if audit.samples == 0 {
                eprintln!(
                    "hawkeye-analyze: {path}: gate=missing-samples: no \
                     cycle_sample events — was the registry attached?"
                );
                gates.missing_samples = true;
                file_ok = false;
            }
            for (scenario, machine, residue) in &audit.nonzero {
                eprintln!(
                    "hawkeye-analyze: {path}: gate=residue: scenario \
                     {scenario:?} machine {machine}: {residue} unattributed \
                     cycles"
                );
                gates.residue = true;
                file_ok = false;
            }
            if file_ok {
                eprintln!(
                    "hawkeye-analyze: {path}: {} cycle sample(s), zero residue",
                    audit.samples
                );
            }
        }
    }
    gates.exit()
}
