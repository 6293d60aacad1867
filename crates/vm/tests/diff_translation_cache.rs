//! Differential test for the page table's embedded translation cache.
//!
//! Two page tables — cache on and cache off — are driven through the same
//! randomized interleaving of accesses and mutations (map, unmap, split,
//! collapse, remap, sampling). Every return value and every piece of
//! observable state must be identical: the cache may only short-circuit
//! accesses that are state no-ops.

use hawkeye_mem::rng::SplitMix64;
use hawkeye_mem::Pfn;
use hawkeye_vm::{Hvpn, PageTable, Vpn};

const REGIONS: u64 = 4;
const PAGES: u64 = REGIONS * 512;

fn assert_same_state(on: &PageTable, off: &PageTable, step: usize) {
    assert_eq!(on.base_count(), off.base_count(), "base_count @ {step}");
    assert_eq!(on.huge_count(), off.huge_count(), "huge_count @ {step}");
    assert_eq!(
        on.mapped_regions().collect::<Vec<_>>(),
        off.mapped_regions().collect::<Vec<_>>(),
        "regions @ {step}"
    );
    for v in 0..PAGES {
        assert_eq!(on.translate(Vpn(v)), off.translate(Vpn(v)), "translate {v} @ {step}");
        assert_eq!(on.base_entry(Vpn(v)), off.base_entry(Vpn(v)), "entry {v} @ {step}");
    }
    for h in 0..REGIONS {
        assert_eq!(
            on.huge_entry(Hvpn(h)).copied(),
            off.huge_entry(Hvpn(h)).copied(),
            "huge {h} @ {step}"
        );
    }
}

/// Drives a cache-on and a cache-off table through 4000 random steps
/// from `seed`, asserting identical results after every step. Without
/// `huge`, no huge mapping is ever made, so the cached table never
/// probes its cache.
fn drive(seed: u64, huge: bool) {
    let mut rng = SplitMix64::new(seed);
    let mut on = PageTable::new();
    let mut off = PageTable::new();
    off.set_translation_cache_enabled(false);
    assert!(on.translation_cache_enabled());
    assert!(!off.translation_cache_enabled());

    for step in 0..4000 {
        let vpn = Vpn(rng.below(PAGES));
        let hvpn = Hvpn(rng.below(REGIONS));
        let mut op = rng.below(100);
        if !huge && (75..=87).contains(&op) {
            // map_huge / unmap_huge / split_huge become touches.
            op = 0;
        }
        match op {
            // Touches dominate, as on the real hot path.
            0..=59 => {
                let write = rng.below(2) == 1;
                assert_eq!(
                    on.access(vpn, write),
                    off.access(vpn, write),
                    "access {vpn:?} write {write} @ {step}"
                );
            }
            60..=69 => {
                let zero_cow = rng.below(4) == 0;
                let pfn = Pfn(rng.below(1 << 20));
                assert_eq!(
                    on.map_base(vpn, pfn, zero_cow).is_ok(),
                    off.map_base(vpn, pfn, zero_cow).is_ok(),
                    "map_base @ {step}"
                );
            }
            70..=74 => {
                assert_eq!(
                    on.unmap_base(vpn).ok(),
                    off.unmap_base(vpn).ok(),
                    "unmap_base @ {step}"
                );
            }
            75..=79 => {
                let pfn = Pfn(hvpn.0 << 9);
                assert_eq!(
                    on.map_huge(hvpn, pfn).is_ok(),
                    off.map_huge(hvpn, pfn).is_ok(),
                    "map_huge @ {step}"
                );
            }
            80..=83 => {
                assert_eq!(
                    on.unmap_huge(hvpn).ok(),
                    off.unmap_huge(hvpn).ok(),
                    "unmap_huge @ {step}"
                );
            }
            84..=87 => {
                assert_eq!(
                    on.split_huge(hvpn).ok(),
                    off.split_huge(hvpn).ok(),
                    "split_huge @ {step}"
                );
            }
            88..=90 => {
                let mut taken_on = Vec::new();
                let mut taken_off = Vec::new();
                on.take_base_entries_in_region(hvpn, |v, e| taken_on.push((v, e)));
                off.take_base_entries_in_region(hvpn, |v, e| taken_off.push((v, e)));
                assert_eq!(taken_on, taken_off, "collapse @ {step}");
            }
            91..=93 => {
                let pfn = Pfn(rng.below(1 << 20));
                let src = on.base_entry(vpn).map_or(Pfn(0), |e| e.pfn);
                assert_eq!(
                    on.migrate_base(vpn, src, pfn),
                    off.migrate_base(vpn, src, pfn),
                    "remap @ {step}"
                );
            }
            94..=96 => {
                assert_eq!(
                    on.sample_and_clear_access(hvpn),
                    off.sample_and_clear_access(hvpn),
                    "sample @ {step}"
                );
            }
            _ => {
                on.clear_region_access(hvpn);
                off.clear_region_access(hvpn);
            }
        }
    }
    if !huge {
        assert_eq!(on.huge_count(), 0);
    }
    assert_same_state(&on, &off, 4000);
}

#[test]
fn random_interleaving_identical_with_and_without_cache() {
    for seed in 0..8 {
        drive(0xD1F + seed, true);
    }
}

#[test]
fn base_only_table_identical_with_and_without_cache() {
    for seed in 0..8 {
        drive(0xBA5E + seed, false);
    }
}

#[test]
fn hammered_page_state_survives_cache_hits() {
    // Repeated hits on one cached page must keep accessed/dirty bits and
    // samples identical to the uncached table.
    let mut on = PageTable::new();
    let mut off = PageTable::new();
    off.set_translation_cache_enabled(false);
    for pt in [&mut on, &mut off] {
        pt.map_base(Vpn(3), Pfn(30), false).unwrap();
    }
    for round in 0..50 {
        for _ in 0..20 {
            assert_eq!(on.access(Vpn(3), true), off.access(Vpn(3), true));
            assert_eq!(on.access(Vpn(3), false), off.access(Vpn(3), false));
        }
        assert_eq!(
            on.sample_and_clear_access(Hvpn(0)),
            off.sample_and_clear_access(Hvpn(0)),
            "round {round}"
        );
    }
    assert_same_state(&on, &off, 50);
}
