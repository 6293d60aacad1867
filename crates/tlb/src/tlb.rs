//! Set-associative translation caches with true-LRU replacement.
//!
//! Entries are keyed by `(pid, page number)`; the simulator does not store
//! translations (correctness lives in the page tables) — the TLB model only
//! determines *timing*: hit or miss. Invalidation hooks let the kernel
//! model TLB shootdowns on unmap, promotion, demotion and migration.

/// A set-associative TLB (or page-walk cache) for one page size.
///
/// # Examples
///
/// ```
/// use hawkeye_tlb::SetAssocTlb;
///
/// let mut tlb = SetAssocTlb::new(8, 2);
/// assert!(!tlb.lookup(1, 100));
/// tlb.insert(1, 100);
/// assert!(tlb.lookup(1, 100));
/// assert!(!tlb.lookup(2, 100)); // other process, other entry
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocTlb {
    /// Flat set storage: set `i` occupies ways `i*assoc..(i+1)*assoc` of
    /// `tags` and `stamps`. An empty way holds [`EMPTY`] with stamp 0;
    /// live ways hold `pid << KEY_BITS | key` and a stamp ≥ 1. Within-set
    /// order is unobservable: `(pid, key)` pairs are unique per set and
    /// live LRU stamps are globally unique, so scans and eviction are
    /// order-independent.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    assoc: usize,
    sets: usize,
    stamp: u64,
    /// Slot (index into `tags`) of the LRU way of the set that the last
    /// missing [`SetAssocTlb::lookup`] scanned — where
    /// [`SetAssocTlb::insert_absent`] writes.
    victim: usize,
    hits: u64,
    misses: u64,
}

/// Key bits reserved in an entry tag; keys are page or region numbers
/// (≤ 2^47 even after the L2's size-bit shift) and pids are small spawn
/// counters, so the packing is lossless.
const KEY_BITS: u32 = 48;
const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

/// The tag of an empty way. `tag()` never produces it: the all-ones pid
/// is reserved.
const EMPTY: u64 = u64::MAX;

#[inline]
fn tag(pid: u32, key: u64) -> u64 {
    debug_assert!(key <= KEY_MASK, "tlb key exceeds {KEY_BITS} bits");
    debug_assert!((pid as u64) < (1 << (64 - KEY_BITS)) - 1, "pid exceeds tag bits");
    ((pid as u64) << KEY_BITS) | key
}

/// One scan of a set of `W` ways: `Ok(way)` if `t` is present, else
/// `Err(way)` of the LRU victim (the lowest stamp, so an empty way first).
/// The tags are compared into a bitmask with no early exit, which the
/// fixed width lets the compiler unroll and vectorize; only a miss reads
/// the stamps.
#[inline(always)]
fn scan_fixed<const W: usize>(tags: &[u64; W], stamps: &[u64; W], t: u64) -> Result<usize, usize> {
    let mut hits = 0u32;
    for (w, &tag) in tags.iter().enumerate() {
        hits |= ((tag == t) as u32) << w;
    }
    if hits != 0 {
        return Ok(hits.trailing_zeros() as usize);
    }
    let (mut victim, mut oldest) = (0, stamps[0]);
    for (w, &stamp) in stamps.iter().enumerate().skip(1) {
        if stamp < oldest {
            (victim, oldest) = (w, stamp);
        }
    }
    Err(victim)
}

/// The first `W` ways of a set as an array.
#[inline(always)]
fn ways<const W: usize>(set: &[u64]) -> &[u64; W] {
    set[..W].try_into().expect("slice of length W")
}

/// [`scan_fixed`] for any set width.
fn scan_any(tags: &[u64], stamps: &[u64], t: u64) -> Result<usize, usize> {
    match tags.iter().position(|&x| x == t) {
        Some(w) => Ok(w),
        None => Err((0..stamps.len()).min_by_key(|&w| stamps[w]).unwrap_or(0)),
    }
}

impl SetAssocTlb {
    /// Creates a TLB with `entries` total entries and `assoc` ways.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is 0, `assoc` is 0, or `assoc` does not divide
    /// `entries`.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(entries > 0 && assoc > 0, "empty tlb");
        assert_eq!(entries % assoc, 0, "associativity must divide entry count");
        SetAssocTlb {
            tags: vec![EMPTY; entries],
            stamps: vec![0; entries],
            assoc,
            sets: entries / assoc,
            stamp: 0,
            victim: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// First slot of the set holding `key`.
    #[inline]
    fn set_base(&self, key: u64) -> usize {
        // Same mapping as `key % sets`, but real geometries have
        // power-of-two set counts and a masked AND avoids a hardware
        // divide on every probe.
        let n = self.sets;
        let idx = if n.is_power_of_two() { (key as usize) & (n - 1) } else { (key as usize) % n };
        idx * self.assoc
    }

    /// Scans the set holding `t`'s key, whose first slot is `base`:
    /// `Ok(slot)` on a hit, else `Err(slot)` of the set's LRU victim.
    #[inline]
    fn scan(&self, base: usize, t: u64) -> Result<usize, usize> {
        let (tags, stamps) = (&self.tags[base..], &self.stamps[base..]);
        let way = match self.assoc {
            4 => scan_fixed::<4>(ways(tags), ways(stamps), t),
            8 => scan_fixed::<8>(ways(tags), ways(stamps), t),
            n => scan_any(&tags[..n], &stamps[..n], t),
        };
        way.map(|w| base + w).map_err(|w| base + w)
    }

    /// Looks up `(pid, key)`, refreshing LRU on hit. Returns whether it
    /// hit. Statistics are updated; a miss remembers the set's LRU way,
    /// where an immediate fill of the missing key goes.
    #[inline]
    pub fn lookup(&mut self, pid: u32, key: u64) -> bool {
        self.stamp += 1;
        match self.scan(self.set_base(key), tag(pid, key)) {
            Ok(slot) => {
                self.stamps[slot] = self.stamp;
                self.hits += 1;
                true
            }
            Err(victim) => {
                self.victim = victim;
                self.misses += 1;
                false
            }
        }
    }

    /// Records `n` consecutive guaranteed hits on a present entry in one
    /// step: equivalent to calling [`SetAssocTlb::lookup`] `n` times when
    /// every call would hit. The global LRU stamp advances by `n` and the
    /// entry takes the final stamp — no other entry's relative order can
    /// change, since repeated hits on one key only push its stamp past
    /// the rest. Returns `false` without any state change if the entry is
    /// absent (the caller falls back to per-access lookups).
    pub fn record_hits(&mut self, pid: u32, key: u64, n: u64) -> bool {
        if n == 0 {
            return true;
        }
        let Ok(slot) = self.scan(self.set_base(key), tag(pid, key)) else { return false };
        self.stamp += n;
        self.stamps[slot] = self.stamp;
        self.hits += n;
        true
    }

    /// Checks presence without updating LRU or statistics.
    pub fn probe(&self, pid: u32, key: u64) -> bool {
        self.scan(self.set_base(key), tag(pid, key)).is_ok()
    }

    /// Inserts `(pid, key)`, evicting the set's LRU entry if full.
    /// Idempotent for present entries (refreshes LRU instead).
    pub fn insert(&mut self, pid: u32, key: u64) {
        self.stamp += 1;
        let t = tag(pid, key);
        let slot = self.scan(self.set_base(key), t).unwrap_or_else(|victim| victim);
        self.tags[slot] = t;
        self.stamps[slot] = self.stamp;
    }

    /// [`SetAssocTlb::insert`] for a key the caller has just proven absent
    /// (its `lookup` missed with no intervening mutation of this
    /// structure): writes straight into the victim slot that lookup
    /// remembered, with no rescan. Exactly equivalent to `insert` under
    /// that precondition — same stamp, same eviction.
    pub(crate) fn insert_absent(&mut self, pid: u32, key: u64) {
        self.stamp += 1;
        let t = tag(pid, key);
        debug_assert_eq!(self.scan(self.set_base(key), t), Err(self.victim), "stale victim");
        self.tags[self.victim] = t;
        self.stamps[self.victim] = self.stamp;
    }

    /// Empties every way for which `gone(tag)` holds.
    fn evict_where(&mut self, mut gone: impl FnMut(u64) -> bool) {
        for (t, s) in self.tags.iter_mut().zip(&mut self.stamps) {
            if *t != EMPTY && gone(*t) {
                *t = EMPTY;
                *s = 0;
            }
        }
    }

    /// Drops one entry if present.
    pub fn invalidate(&mut self, pid: u32, key: u64) {
        if let Ok(slot) = self.scan(self.set_base(key), tag(pid, key)) {
            self.tags[slot] = EMPTY;
            self.stamps[slot] = 0;
        }
    }

    /// Drops all entries of a process (context switch with ASID reuse,
    /// or process exit).
    pub fn invalidate_pid(&mut self, pid: u32) {
        let owner = (pid as u64) << KEY_BITS;
        self.evict_where(|t| t & !KEY_MASK == owner);
    }

    /// Drops every entry whose key satisfies the predicate for `pid`
    /// (range shootdowns).
    pub fn invalidate_if(&mut self, pid: u32, mut pred: impl FnMut(u64) -> bool) {
        let owner = (pid as u64) << KEY_BITS;
        self.evict_where(|t| t & !KEY_MASK == owner && pred(t & KEY_MASK));
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Current number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_within_set() {
        // 4 entries, 2 ways -> 2 sets; keys 0,2,4 land in set 0.
        let mut t = SetAssocTlb::new(4, 2);
        t.insert(1, 0);
        t.insert(1, 2);
        assert!(t.lookup(1, 0)); // refresh 0; 2 becomes LRU
        t.insert(1, 4); // evicts 2
        assert!(t.probe(1, 0));
        assert!(!t.probe(1, 2));
        assert!(t.probe(1, 4));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut t = SetAssocTlb::new(4, 2);
        t.insert(1, 0);
        t.insert(1, 0);
        assert_eq!(t.occupancy(), 1);
    }

    #[test]
    fn pid_isolation() {
        let mut t = SetAssocTlb::new(8, 2);
        t.insert(1, 5);
        assert!(!t.lookup(2, 5));
        t.insert(2, 5);
        assert!(t.lookup(1, 5) && t.lookup(2, 5));
        t.invalidate_pid(1);
        assert!(!t.probe(1, 5));
        assert!(t.probe(2, 5));
    }

    #[test]
    fn invalidate_single_and_predicate() {
        let mut t = SetAssocTlb::new(8, 4);
        for k in 0..6 {
            t.insert(1, k);
        }
        t.invalidate(1, 3);
        assert!(!t.probe(1, 3));
        t.invalidate_if(1, |k| k < 2);
        assert!(!t.probe(1, 0) && !t.probe(1, 1));
        assert!(t.probe(1, 4));
    }

    #[test]
    fn hit_miss_statistics() {
        let mut t = SetAssocTlb::new(4, 4);
        assert!(!t.lookup(1, 1));
        t.insert(1, 1);
        assert!(t.lookup(1, 1));
        assert_eq!((t.hits(), t.misses()), (1, 1));
    }

    #[test]
    fn record_hits_matches_n_lookups() {
        let mut bulk = SetAssocTlb::new(8, 2);
        let mut serial = bulk.clone();
        for k in [0u64, 2, 4] {
            bulk.insert(1, k);
            serial.insert(1, k);
        }
        assert!(bulk.record_hits(1, 2, 5));
        for _ in 0..5 {
            assert!(serial.lookup(1, 2));
        }
        assert_eq!(bulk.hits(), serial.hits());
        assert_eq!(bulk.misses(), serial.misses());
        // LRU order identical after the streak: inserting into the full
        // set 0 must evict the same victim.
        bulk.insert(1, 6);
        serial.insert(1, 6);
        for k in [0u64, 2, 4, 6] {
            assert_eq!(bulk.probe(1, k), serial.probe(1, k), "key {k}");
        }
        // Absent entry: no state change, caller falls back.
        let before_hits = bulk.hits();
        assert!(!bulk.record_hits(1, 100, 3));
        assert_eq!(bulk.hits(), before_hits);
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let mut t = SetAssocTlb::new(8, 2);
        for k in 0..100 {
            t.insert(7, k);
        }
        assert!(t.occupancy() <= t.capacity());
        assert_eq!(t.capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "associativity")]
    fn bad_geometry_rejected() {
        let _ = SetAssocTlb::new(10, 4);
    }

    /// The set layout this file replaced, kept as a test oracle: sets are
    /// compacted `Vec` prefixes with a length counter, empty ways are
    /// appended to before any eviction, and every call rescans its set.
    #[derive(Debug, Clone)]
    struct ReferenceTlb {
        entries: Vec<(u64, u64)>,
        lens: Vec<u8>,
        assoc: usize,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl ReferenceTlb {
        fn new(entries: usize, assoc: usize) -> Self {
            let lens = vec![0; entries / assoc];
            ReferenceTlb { entries: vec![(0, 0); entries], lens, assoc, stamp: 0, hits: 0, misses: 0 }
        }

        fn set(&self, key: u64) -> (usize, usize, usize) {
            let idx = key as usize % self.lens.len();
            (idx, idx * self.assoc, self.lens[idx] as usize)
        }

        fn lookup(&mut self, pid: u32, key: u64) -> bool {
            self.stamp += 1;
            let stamp = self.stamp;
            let t = tag(pid, key);
            let (_, base, len) = self.set(key);
            match self.entries[base..base + len].iter_mut().find(|e| e.0 == t) {
                Some(e) => {
                    e.1 = stamp;
                    self.hits += 1;
                    true
                }
                None => {
                    self.misses += 1;
                    false
                }
            }
        }

        fn record_hits(&mut self, pid: u32, key: u64, n: u64) -> bool {
            if n == 0 {
                return true;
            }
            let stamp = self.stamp + n;
            let t = tag(pid, key);
            let (_, base, len) = self.set(key);
            match self.entries[base..base + len].iter_mut().find(|e| e.0 == t) {
                Some(e) => {
                    e.1 = stamp;
                    self.stamp = stamp;
                    self.hits += n;
                    true
                }
                None => false,
            }
        }

        fn probe(&self, pid: u32, key: u64) -> bool {
            let (_, base, len) = self.set(key);
            self.entries[base..base + len].iter().any(|e| e.0 == tag(pid, key))
        }

        fn insert(&mut self, pid: u32, key: u64) {
            self.stamp += 1;
            let stamp = self.stamp;
            let t = tag(pid, key);
            let (idx, base, len) = self.set(key);
            if let Some(e) = self.entries[base..base + len].iter_mut().find(|e| e.0 == t) {
                e.1 = stamp;
            } else if len < self.assoc {
                self.entries[base + len] = (t, stamp);
                self.lens[idx] += 1;
            } else {
                let lru = self.entries[base..base + len]
                    .iter_mut()
                    .min_by_key(|e| e.1)
                    .expect("set is full, hence non-empty");
                *lru = (t, stamp);
            }
        }

        fn evict_where(&mut self, mut gone: impl FnMut(u64) -> bool) {
            for idx in 0..self.lens.len() {
                let base = idx * self.assoc;
                let mut keep = 0;
                for i in 0..self.lens[idx] as usize {
                    if !gone(self.entries[base + i].0) {
                        self.entries[base + keep] = self.entries[base + i];
                        keep += 1;
                    }
                }
                self.lens[idx] = keep as u8;
            }
        }

        fn occupancy(&self) -> usize {
            self.lens.iter().map(|l| *l as usize).sum()
        }
    }

    /// Random op sequences on both layouts, at every geometry the
    /// simulator builds (haswell and tiny configs) plus a few more: after
    /// every step the return values, counters, occupancy and the set of
    /// resident `(pid, key)` tags agree, and every 256 steps `probe`
    /// agrees on every key.
    #[test]
    fn matches_vec_and_len_reference() {
        use hawkeye_mem::rng::SplitMix64;
        const PIDS: u32 = 3;
        for (entries, assoc) in [(64, 4), (8, 8), (1024, 8), (32, 4), (4, 4), (2, 2)] {
            // Keys span a few times the capacity, so sets churn.
            let keys = (entries as u64 * 3).max(8);
            for seed in 0..6u64 {
                let mut rng = SplitMix64::new((seed << 16) | (entries as u64 + assoc as u64));
                let mut tlb = SetAssocTlb::new(entries, assoc);
                let mut oracle = ReferenceTlb::new(entries, assoc);
                for step in 0..3000 {
                    let pid = 1 + rng.below(PIDS as u64) as u32;
                    let key = rng.below(keys);
                    let at = format!("{entries}x{assoc} seed {seed} step {step}");
                    match rng.below(100) {
                        0..=39 => assert_eq!(tlb.lookup(pid, key), oracle.lookup(pid, key), "lookup @ {at}"),
                        40..=69 => {
                            // The MMU's miss-then-fill pattern.
                            let hit = tlb.lookup(pid, key);
                            assert_eq!(hit, oracle.lookup(pid, key), "lookup @ {at}");
                            if !hit {
                                tlb.insert_absent(pid, key);
                                oracle.insert(pid, key);
                            }
                        }
                        70..=79 => {
                            tlb.insert(pid, key);
                            oracle.insert(pid, key);
                        }
                        80..=87 => {
                            let n = rng.below(4);
                            assert_eq!(
                                tlb.record_hits(pid, key, n),
                                oracle.record_hits(pid, key, n),
                                "record_hits @ {at}"
                            );
                        }
                        88..=93 => {
                            tlb.invalidate(pid, key);
                            let t = tag(pid, key);
                            oracle.evict_where(|e| e == t);
                        }
                        94..=95 => {
                            tlb.invalidate_pid(pid);
                            oracle.evict_where(|e| e >> KEY_BITS == pid as u64);
                        }
                        _ => {
                            let (lo, hi) = (key, key + 1 + rng.below(keys / 2));
                            tlb.invalidate_if(pid, |k| k >= lo && k < hi);
                            oracle.evict_where(|e| {
                                e >> KEY_BITS == pid as u64 && (lo..hi).contains(&(e & KEY_MASK))
                            });
                        }
                    }
                    assert_eq!((tlb.hits(), tlb.misses()), (oracle.hits, oracle.misses), "counters @ {at}");
                    assert_eq!(tlb.occupancy(), oracle.occupancy(), "occupancy @ {at}");
                    // Equal live tag sets: every key's presence agrees.
                    let mut live: Vec<u64> = tlb.tags.iter().copied().filter(|&t| t != EMPTY).collect();
                    let mut want: Vec<u64> = (0..oracle.lens.len())
                        .flat_map(|i| {
                            let base = i * assoc;
                            oracle.entries[base..base + oracle.lens[i] as usize].iter().map(|e| e.0)
                        })
                        .collect();
                    live.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(live, want, "resident tags @ {at}");
                    if step % 256 == 0 {
                        for p in 1..=PIDS {
                            for k in 0..keys {
                                assert_eq!(tlb.probe(p, k), oracle.probe(p, k), "probe {p}/{k} @ {at}");
                            }
                        }
                    }
                }
            }
        }
    }
}
