//! Ad-hoc wall-clock harness for the simulator's hot path.
//!
//! Replicates the fig8 "sensitive + lightly-loaded Redis" pair (the
//! suite's most touch-bound shape) under the same scopes the report
//! suite uses, so optimizations can be timed in isolation:
//!
//! ```text
//! cargo run --release -p hawkeye-bench --example hotpath_prof [bare|scoped]
//! ```

use hawkeye_bench::PolicyKind;
use hawkeye_kernel::Simulator;
use hawkeye_metrics::Cycles;
use hawkeye_workloads::{HotspotWorkload, RedisKv};
use std::time::Instant;

fn run_pair(kind: PolicyKind) -> f64 {
    let mut cfg = kind.config(768);
    cfg.max_time = Cycles::from_secs(400.0);
    let mut sim = Simulator::new(cfg, kind.build());
    sim.machine_mut().fragment(1.0, 0.55, 7);
    let sens_pid = sim.spawn(Box::new(HotspotWorkload::graph500(56, 4500)));
    sim.spawn(Box::new(RedisKv::lightly_loaded(24 * 1024, 100_000_000, 23)));
    sim.run_while(|m| m.process(sens_pid).map(|p| !p.is_finished()).unwrap_or(false));
    sim.machine()
        .process(sens_pid)
        .and_then(|p| p.finish_time())
        .unwrap_or(sim.machine().now())
        .as_secs()
}

/// Component timings: page-table access, MMU model, PMU recording.
fn micro() {
    use hawkeye_mem::rng::SplitMix64;
    use hawkeye_mem::Pfn;
    use hawkeye_vm::{PageSize, PageTable, Vpn};

    const PAGES: u64 = 56 * 512;
    const N: u64 = 10_000_000;
    let mut rng = SplitMix64::new(7);
    let vpns: Vec<Vpn> = (0..N).map(|_| Vpn(rng.below(PAGES))).collect();

    let mut pt = PageTable::new();
    for v in 0..PAGES {
        pt.map_base(Vpn(v), Pfn(v), false).unwrap();
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for v in &vpns {
        acc = acc.wrapping_add(pt.access(*v, false).unwrap().pfn.0);
    }
    println!("pt.access (base): {:.1} ns/op ({acc:x})", t0.elapsed().as_nanos() as f64 / N as f64);

    let mut pth = PageTable::new();
    for h in 0..56u64 {
        pth.map_huge(hawkeye_vm::Hvpn(h), Pfn(h * 512)).unwrap();
    }
    let t0 = Instant::now();
    let mut acc = 0u64;
    for v in &vpns {
        acc = acc.wrapping_add(pth.access(*v, false).unwrap().pfn.0);
    }
    println!("pt.access (huge): {:.1} ns/op ({acc:x})", t0.elapsed().as_nanos() as f64 / N as f64);

    let mut mmu = hawkeye_tlb::Mmu::new(hawkeye_tlb::TlbConfig::default());
    let t0 = Instant::now();
    let mut cyc = 0u64;
    for v in &vpns {
        cyc = cyc.wrapping_add(mmu.access(1, *v, PageSize::Base, false).cycles.get());
    }
    println!("mmu.access (base): {:.1} ns/op ({cyc:x})", t0.elapsed().as_nanos() as f64 / N as f64);

    let t0 = Instant::now();
    let mut cyc = 0u64;
    for v in &vpns {
        cyc = cyc.wrapping_add(mmu.access(1, *v, PageSize::Huge, false).cycles.get());
    }
    println!("mmu.access (huge): {:.1} ns/op ({cyc:x})", t0.elapsed().as_nanos() as f64 / N as f64);
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "scoped".into());
    if mode == "micro" {
        micro();
        return;
    }
    let scoped = mode != "bare";
    for kind in [PolicyKind::Linux4k, PolicyKind::HawkEyePmu] {
        let t0 = Instant::now();
        let finish;
        if scoped {
            hawkeye_metrics::registry::scope::begin();
            hawkeye_trace::scope::begin(hawkeye_trace::DEFAULT_CAPACITY);
            finish = run_pair(kind);
            let _ = hawkeye_trace::scope::end();
            let _ = hawkeye_metrics::registry::scope::end();
        } else {
            finish = run_pair(kind);
        }
        println!("{kind:?} ({mode}): host {:.2?}, sim finish {finish:.3}s", t0.elapsed());
    }
}
