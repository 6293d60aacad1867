//! The paper-experiment suite as a library.
//!
//! Every bench target that reproduces a table or figure from the paper
//! (the rows of DESIGN.md §4's experiment index) lives here as a module
//! with a single `pub fn report(run: &mut Run) -> Report` entry point.
//! The one `suite` bench runs any of them by name through [`select`] and
//! [`Target::run`]:
//!
//! ```text
//! cargo bench -p hawkeye-bench --bench suite -- table1_fault_latency fig5_promotion_efficiency
//! cargo bench -p hawkeye-bench --bench suite     # all targets, TARGETS order
//! ```
//!
//! `hawkeye-report` runs the same code in-process via [`TARGETS`] so the
//! one-command reproduction pipeline and the bench can never drift apart
//! (DESIGN.md §12).
//!
//! Every target runs in one configuration: each scenario is traced, and
//! `fleet_slo` always collects its telemetry document.
//!
//! `ablations` stays a standalone bench: it is an exploratory tool, not a
//! row of the experiment index.

pub mod adversarial;
pub mod fig10_prezero_interference;
pub mod fig11_overcommit;
pub mod fig1_redis_bloat;
pub mod fig3_first_nonzero_byte;
pub mod fig4_access_map;
pub mod fig5_promotion_efficiency;
pub mod fig6_promotion_timeline;
pub mod fig7_table5_identical_workloads;
pub mod fig8_heterogeneous;
pub mod fig9_virtualized;
pub mod fleet_slo;
pub mod hpc_stencil;
pub mod multicore_contention;
pub mod oltp_btree;
pub mod table1_fault_latency;
pub mod table2_tlb_sensitivity;
pub mod table3_npb_characteristics;
pub mod table4_pmu_methodology;
pub mod table7_bloat_recovery;
pub mod table8_fast_faults;
pub mod table9_pmu_vs_g;

use crate::{Report, Run, TargetRun};

/// One runnable paper experiment: a row of DESIGN.md §4's index.
pub struct Target {
    /// Bench-target name; also the stem of the summary JSON and trace
    /// journal written under `target/bench-results/`.
    pub name: &'static str,
    /// The paper artifact this target reproduces ("Table 1", "Fig 5", …).
    pub paper: &'static str,
    /// Builds and runs the experiment through `run` and returns its
    /// [`Report`]; the artifacts accumulate in `run`.
    pub build: fn(&mut Run) -> Report,
}

impl Target {
    /// Runs the experiment and returns everything it produced. The quanta
    /// are the process-wide scheduler-counter delta around the build,
    /// exact as long as no other target runs at the same time.
    pub fn run(&self, mut run: Run) -> TargetRun {
        let (total0, skipped0) = hawkeye_kernel::sched_stats::snapshot();
        let report = (self.build)(&mut run);
        let (total1, skipped1) = hawkeye_kernel::sched_stats::snapshot();
        TargetRun {
            quanta_total: total1 - total0,
            quanta_skipped: skipped1 - skipped0,
            ..run.finish(report)
        }
    }
}

/// All paper experiments, in DESIGN.md §4 order (tables, then figures).
pub const TARGETS: &[Target] = &[
    Target {
        name: "table1_fault_latency",
        paper: "Table 1",
        build: table1_fault_latency::report,
    },
    Target {
        name: "table2_tlb_sensitivity",
        paper: "Table 2",
        build: table2_tlb_sensitivity::report,
    },
    Target {
        name: "table3_npb_characteristics",
        paper: "Table 3",
        build: table3_npb_characteristics::report,
    },
    Target {
        name: "table4_pmu_methodology",
        paper: "Table 4",
        build: table4_pmu_methodology::report,
    },
    Target {
        name: "table7_bloat_recovery",
        paper: "Table 7",
        build: table7_bloat_recovery::report,
    },
    Target {
        name: "table8_fast_faults",
        paper: "Table 8",
        build: table8_fast_faults::report,
    },
    Target {
        name: "table9_pmu_vs_g",
        paper: "Table 9",
        build: table9_pmu_vs_g::report,
    },
    Target {
        name: "fig1_redis_bloat",
        paper: "Fig 1",
        build: fig1_redis_bloat::report,
    },
    Target {
        name: "fig3_first_nonzero_byte",
        paper: "Fig 3",
        build: fig3_first_nonzero_byte::report,
    },
    Target {
        name: "fig4_access_map",
        paper: "Fig 4",
        build: fig4_access_map::report,
    },
    Target {
        name: "fig5_promotion_efficiency",
        paper: "Fig 5",
        build: fig5_promotion_efficiency::report,
    },
    Target {
        name: "fig6_promotion_timeline",
        paper: "Fig 6",
        build: fig6_promotion_timeline::report,
    },
    Target {
        name: "fig7_table5_identical_workloads",
        paper: "Fig 7 / Table 5",
        build: fig7_table5_identical_workloads::report,
    },
    Target {
        name: "fig8_heterogeneous",
        paper: "Fig 8 / Table 6",
        build: fig8_heterogeneous::report,
    },
    Target {
        name: "fig9_virtualized",
        paper: "Fig 9",
        build: fig9_virtualized::report,
    },
    Target {
        name: "fig10_prezero_interference",
        paper: "Fig 10",
        build: fig10_prezero_interference::report,
    },
    Target {
        name: "fig11_overcommit",
        paper: "Fig 11",
        build: fig11_overcommit::report,
    },
    Target {
        name: "multicore_contention",
        paper: "§4 multi-core",
        build: multicore_contention::report,
    },
    Target {
        name: "fleet_slo",
        paper: "§Fleet SLOs",
        build: fleet_slo::report,
    },
    Target {
        name: "oltp_btree",
        paper: "§17 OLTP B-tree",
        build: oltp_btree::report,
    },
    Target {
        name: "hpc_stencil",
        paper: "§17 HPC stencil",
        build: hpc_stencil::report,
    },
    Target {
        name: "adversarial",
        paper: "§17 adversarial",
        build: adversarial::report,
    },
];

/// Looks up a suite target by bench-target name.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// Resolves a `suite` bench command line to the targets it names, in the
/// order given. Arguments starting with `--` are ignored (`cargo bench`
/// passes `--bench` to every bench binary); no names selects every target
/// in [`TARGETS`] order. An unknown name is an error that names it and
/// lists the valid ones.
pub fn select<I>(args: I) -> Result<Vec<&'static Target>, String>
where
    I: IntoIterator,
    I::Item: AsRef<str>,
{
    let mut picked = Vec::new();
    for arg in args {
        let name = arg.as_ref();
        if name.starts_with("--") {
            continue;
        }
        let Some(target) = find(name) else {
            let valid: Vec<&str> = TARGETS.iter().map(|t| t.name).collect();
            return Err(format!(
                "unknown suite target `{name}`; valid targets: {}",
                valid.join(", ")
            ));
        };
        picked.push(target);
    }
    if picked.is_empty() {
        picked = TARGETS.iter().collect();
    }
    Ok(picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(targets: &[&Target]) -> Vec<&'static str> {
        targets.iter().map(|t| t.name).collect()
    }

    #[test]
    fn no_names_selects_every_target_in_order() {
        let all = select(Vec::<String>::new()).expect("empty args are valid");
        assert_eq!(all.len(), 22);
        assert_eq!(names(&all), names(&TARGETS.iter().collect::<Vec<_>>()));
    }

    #[test]
    fn flags_are_ignored() {
        assert_eq!(select(["--bench"]).expect("flag only").len(), TARGETS.len());
        let picked = select(["--bench", "fig4_access_map", "--quick"]).expect("one name");
        assert_eq!(names(&picked), ["fig4_access_map"]);
    }

    #[test]
    fn named_targets_keep_the_order_given() {
        let picked = select(["hpc_stencil", "table1_fault_latency", "fig8_heterogeneous"])
            .expect("known names");
        assert_eq!(
            names(&picked),
            ["hpc_stencil", "table1_fault_latency", "fig8_heterogeneous"]
        );
    }

    #[test]
    fn unknown_name_is_an_error_naming_it() {
        let Err(err) = select(["table1_fault_latency", "fig2_nope"]) else {
            panic!("an unknown name must be an error");
        };
        assert!(err.contains("`fig2_nope`"), "{err}");
        assert!(err.contains("table1_fault_latency"), "lists valid names: {err}");
    }
}
