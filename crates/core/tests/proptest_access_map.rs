//! Property tests of the access_map's ordering invariants (§3.3).
//!
//! Inputs come from the in-tree `SplitMix64` with fixed seeds, one
//! generator per case, so every run checks the same cases.

use hawkeye_core::{AccessMap, BUCKETS};
use hawkeye_mem::rng::SplitMix64;
use hawkeye_vm::Hvpn;
use std::collections::BTreeSet;

/// Cases per property.
const CASES: u64 = 128;

/// The generator for case `case` of the property seeded `seed`.
fn case_rng(seed: u64, case: u64) -> SplitMix64 {
    SplitMix64::new(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Uniform in `[lo, hi)`.
fn range(rng: &mut SplitMix64, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// `len ∈ [min_len, max_len)` coverage samples uniform in `[0, 512]`.
fn coverages(rng: &mut SplitMix64, min_len: u64, max_len: u64) -> Vec<u32> {
    (0..range(rng, min_len, max_len)).map(|_| rng.below(513) as u32).collect()
}

/// Popping drains regions in non-increasing bucket order, and every
/// tracked region comes out exactly once.
#[test]
fn pop_order_is_monotone_by_bucket() {
    for case in 0..CASES {
        let mut rng = case_rng(0xACC5, case);
        let n = range(&mut rng, 1, 300);
        let updates: Vec<(u64, u32)> =
            (0..n).map(|_| (rng.below(64), rng.below(513) as u32)).collect();
        let mut m = AccessMap::new(0.5);
        for (r, cov) in &updates {
            m.update(Hvpn(*r), *cov);
        }
        let tracked: BTreeSet<u64> = updates.iter().map(|(r, _)| *r).collect();
        let mut popped = Vec::new();
        let mut last = BUCKETS;
        while let Some(idx) = m.highest_index() {
            assert!(idx <= last, "bucket {idx} popped after bucket {last}");
            last = idx;
            // The head of the highest bucket pops, and its EMA belongs there.
            let h = m.peek_best().expect("non-empty");
            let ema = m.ema(h).expect("tracked");
            assert_eq!(((ema / 50.0) as usize).min(BUCKETS - 1), idx, "{h:?} in the wrong bucket");
            assert_eq!(m.pop_best(0.0), Some(h));
            popped.push(h.0);
        }
        assert_eq!(popped.len(), tracked.len(), "each region pops exactly once");
        let set: BTreeSet<u64> = popped.iter().copied().collect();
        assert_eq!(set, tracked);
    }
}

/// EMA always stays within [0, 512] and moves toward the sample.
#[test]
fn ema_is_bounded_and_contractive() {
    for case in 0..CASES {
        let mut rng = case_rng(0xE3A0, case);
        let samples = coverages(&mut rng, 1, 100);
        let alpha = 0.05 + 0.95 * rng.unit();
        let mut m = AccessMap::new(alpha);
        let mut prev: f64 = 0.0;
        for s in samples {
            m.update(Hvpn(1), s);
            let ema = m.ema(Hvpn(1)).unwrap();
            assert!((0.0..=512.0).contains(&ema), "ema {ema}");
            // The new EMA lies between the previous EMA and the sample.
            let lo = prev.min(s as f64) - 1e-9;
            let hi = prev.max(s as f64) + 1e-9;
            assert!(ema >= lo && ema <= hi, "ema {ema} outside [{lo}, {hi}]");
            prev = ema;
        }
    }
}

/// The floor filter never returns a region below the floor, yet keeps
/// such regions tracked.
#[test]
fn floor_is_respected() {
    for case in 0..CASES {
        let mut rng = case_rng(0xF100, case);
        let covs = coverages(&mut rng, 1, 64);
        let floor = 256.0 * rng.unit();
        let mut m = AccessMap::new(1.0);
        for (i, c) in covs.iter().enumerate() {
            m.update(Hvpn(i as u64), *c);
        }
        let before = m.len();
        let mut returned = 0;
        while let Some(h) = m.pop_best(floor) {
            assert!(covs[h.0 as usize] as f64 >= floor, "region {h:?} is below the floor");
            returned += 1;
        }
        let expected = covs.iter().filter(|c| **c as f64 >= floor).count();
        assert_eq!(returned, expected);
        assert_eq!(m.len(), before - returned, "below-floor regions stay tracked");
    }
}

/// highest_index is consistent with the best pop.
#[test]
fn highest_index_matches_peek() {
    for case in 0..CASES {
        let mut rng = case_rng(0x41D3, case);
        let n = range(&mut rng, 1, 64);
        let covs: Vec<(u64, u32)> =
            (0..n).map(|_| (rng.below(32), range(&mut rng, 1, 513) as u32)).collect();
        let mut m = AccessMap::new(1.0);
        for (r, c) in &covs {
            m.update(Hvpn(*r), *c);
        }
        let idx = m.highest_index().expect("non-empty");
        assert!(idx < BUCKETS);
        let peek = m.peek_best().expect("non-empty");
        let pop = m.pop_best(0.0).expect("non-empty");
        assert_eq!(peek, pop, "peek and pop agree");
    }
}
