//! The `HAWKEYE_CORES` override, in its own test binary.
//!
//! `Simulator::new` reads the variable on every construction, and env
//! vars are process-global: setting it beside other tests would silently
//! change the core count of any simulator they build at the same moment.
//! Keeping this test alone in its process confines the mutation to it.

use hawkeye_kernel::{BasePagesOnly, KernelConfig, Simulator};

#[test]
fn hawkeye_cores_env_overrides_config() {
    // The knob is read at Simulator::new; exercise both directions.
    std::env::set_var("HAWKEYE_CORES", "4");
    let sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
    assert!(sim.machine().concurrency().is_some(), "HAWKEYE_CORES=4 enables recording");
    std::env::set_var("HAWKEYE_CORES", "1");
    let mut cfg = KernelConfig::small();
    cfg.cores = 8;
    let sim = Simulator::new(cfg, Box::new(BasePagesOnly));
    assert!(sim.machine().concurrency().is_none(), "HAWKEYE_CORES=1 forces serial");
    std::env::remove_var("HAWKEYE_CORES");
}
