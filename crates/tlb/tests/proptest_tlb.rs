//! Property tests of the TLB hierarchy: inclusion-free timing sanity,
//! capacity bounds, invalidation completeness, and PMU accounting
//! conservation.
//!
//! Inputs come from the in-tree `SplitMix64` with fixed seeds, one
//! generator per case, so every run checks the same cases.

use hawkeye_mem::rng::SplitMix64;
use hawkeye_metrics::Cycles;
use hawkeye_tlb::{Mmu, SetAssocTlb, TlbConfig};
use hawkeye_vm::{PageSize, Vpn};
use std::collections::BTreeSet;

/// Cases per property.
const CASES: u64 = 96;

/// The generator for case `case` of the property seeded `seed`.
fn case_rng(seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform in `[lo, hi)`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// `len ∈ [min_len, max_len)` values uniform in `[0, bound)`.
fn vec_below(rng: &mut SplitMix64, bound: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    (0..range(rng, min_len, max_len)).map(|_| rng.below(bound)).collect()
}

/// A set of `n ∈ [min_len, max_len)` distinct values in `[0, bound)`.
fn set_below(rng: &mut SplitMix64, bound: u64, min_len: u64, max_len: u64) -> BTreeSet<u64> {
    let n = range(rng, min_len, max_len) as usize;
    let mut set = BTreeSet::new();
    while set.len() < n {
        set.insert(rng.below(bound));
    }
    set
}

/// A set-associative TLB never exceeds capacity and always hits a key
/// that was just inserted.
#[test]
fn tlb_capacity_and_recency() {
    for case in 0..CASES {
        let keys = vec_below(&mut case_rng(0x71B1, case), 10_000, 1, 500);
        let mut t = SetAssocTlb::new(64, 4);
        for k in &keys {
            t.insert(1, *k);
            assert!(t.probe(1, *k), "just-inserted key must be present");
            assert!(t.occupancy() <= t.capacity());
        }
    }
}

/// Invalidate-by-pid removes exactly that pid's entries.
#[test]
fn pid_invalidation_is_complete_and_precise() {
    for case in 0..CASES {
        let mut rng = case_rng(0x71B2, case);
        let a = vec_below(&mut rng, 1_000, 1, 100);
        let b = vec_below(&mut rng, 1_000, 1, 100);
        let mut t = SetAssocTlb::new(1024, 8);
        for k in &a {
            t.insert(1, *k);
        }
        for k in &b {
            t.insert(2, *k);
        }
        t.invalidate_pid(1);
        for k in &a {
            assert!(!t.probe(1, *k));
        }
        // Pid 2 survivors: whatever was resident stays resident.
        let survivors = b.iter().filter(|k| t.probe(2, **k)).count();
        assert!(survivors > 0, "other pid must not be wiped");
    }
}

/// Region invalidation forces the next access in that region to walk.
#[test]
fn region_shootdown_forces_walks() {
    for case in 0..CASES {
        let pages = set_below(&mut case_rng(0x71B3, case), 512, 1, 64);
        let mut mmu = Mmu::new(TlbConfig::haswell());
        for p in &pages {
            mmu.access(1, Vpn(*p), PageSize::Base, false);
        }
        mmu.invalidate_region(1, 0);
        for p in &pages {
            let o = mmu.access(1, Vpn(*p), PageSize::Base, false);
            assert!(o.tlb_miss, "page {p} must miss after shootdown");
        }
    }
}

/// PMU conservation: lifetime walk cycles equal the sum of outcome walk
/// durations, and overhead is within [0, 1] when unhalted covers at least
/// the walk time.
#[test]
fn pmu_accounting_is_conservative() {
    for case in 0..CASES {
        let mut rng = case_rng(0x71B4, case);
        let accesses: Vec<(u64, bool)> =
            (0..range(&mut rng, 1, 300)).map(|_| (rng.below(100_000), rng.below(2) == 1)).collect();
        let mut mmu = Mmu::new(TlbConfig::haswell());
        let mut total_walk = Cycles::ZERO;
        let mut spent = Cycles::ZERO;
        for (vpn, write) in &accesses {
            let o = mmu.access(7, Vpn(*vpn), PageSize::Base, *write);
            total_walk += o.walk_cycles;
            spent += o.cycles + Cycles::new(100);
        }
        mmu.record_unhalted(7, spent);
        let life = mmu.lifetime(7);
        assert_eq!(life.load_walk + life.store_walk, total_walk);
        let ov = life.mmu_overhead();
        assert!((0.0..=1.0).contains(&ov), "overhead {ov}");
    }
}

/// Huge mappings never increase the miss count relative to base mappings
/// for the same access stream.
#[test]
fn huge_never_misses_more() {
    for case in 0..CASES {
        let trace = vec_below(&mut case_rng(0x71B5, case), 8192, 50, 400);
        let mut base = Mmu::new(TlbConfig::haswell());
        let mut huge = Mmu::new(TlbConfig::haswell());
        let mut bm = 0u64;
        let mut hm = 0u64;
        for v in &trace {
            bm += base.access(1, Vpn(*v), PageSize::Base, false).tlb_miss as u64;
            hm += huge.access(1, Vpn(*v), PageSize::Huge, false).tlb_miss as u64;
        }
        assert!(hm <= bm, "huge {hm} > base {bm}");
    }
}
