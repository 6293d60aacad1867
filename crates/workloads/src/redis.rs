//! A Redis-like in-memory key-value store.
//!
//! Drives the paper's bloat experiments (Fig. 1, Table 7), the fast-fault
//! experiment (Table 8, 2 MB values) and the lightly-loaded server of
//! Fig. 8. The store models a user-space allocator: values are carved
//! from a bump region, deletions `madvise` the freed pages back to the
//! kernel, and freed chunks are reused first-fit for later inserts — so a
//! delete-heavy phase leaves the address space sparse, exactly the state
//! that lures Linux/Ingens into promoting mostly-empty regions (§2.1).

use crate::content::DirtModel;
use hawkeye_kernel::{MemOp, Workload};
use hawkeye_vm::{VmaKind, Vpn};
use hawkeye_kernel::rng::SplitMix64;
use std::collections::VecDeque;

const KEY_CHUNK: u64 = 2048;

/// One phase of a Redis run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RedisOp {
    /// Insert `keys` values of `value_pages` pages each.
    Insert {
        /// Number of keys inserted.
        keys: u64,
        /// Pages per value (1 = 4 KB values, 512 = 2 MB values).
        value_pages: u64,
        /// Compute cycles per touched page.
        think: u32,
    },
    /// Delete a random fraction of the live keys (releases their pages
    /// via `madvise(MADV_DONTNEED)`, like Redis' jemalloc does).
    DeleteFrac {
        /// Fraction of live keys removed (0.0–1.0).
        fraction: f64,
    },
    /// Serve `requests` random GETs, paced by `think` cycles each.
    Serve {
        /// Number of GET requests.
        requests: u64,
        /// Compute cycles per request (pacing).
        think: u32,
    },
    /// Idle for `cycles`.
    Pause {
        /// Idle cycles.
        cycles: u64,
    },
}

/// The Redis-like workload.
///
/// # Examples
///
/// ```
/// use hawkeye_workloads::{RedisKv, RedisOp};
/// use hawkeye_kernel::Workload;
///
/// let mut r = RedisKv::new(64 * 512, vec![
///     RedisOp::Insert { keys: 1000, value_pages: 1, think: 100 },
///     RedisOp::DeleteFrac { fraction: 0.8 },
/// ], 7);
/// assert_eq!(r.name(), "redis");
/// assert!(r.next_op().is_some());
/// ```
#[derive(Debug)]
pub struct RedisKv {
    capacity_pages: u64,
    script: VecDeque<RedisOp>,
    mmapped: bool,
    bump: u64,
    /// Live values: (first page, pages).
    live: Vec<(u64, u64)>,
    /// Freed chunks available for reuse: (first page, pages).
    free_chunks: Vec<(u64, u64)>,
    /// Deletions waiting to be emitted as madvise ops.
    pending_deletes: VecDeque<(u64, u64)>,
    rng: SplitMix64,
    dirt: DirtModel,
}

impl RedisKv {
    /// Creates a store with a `capacity_pages` VA arena and a phase
    /// script.
    pub fn new(capacity_pages: u64, script: Vec<RedisOp>, seed: u64) -> Self {
        RedisKv {
            capacity_pages,
            script: script.into_iter().collect(),
            mmapped: false,
            bump: 0,
            live: Vec::new(),
            free_chunks: Vec::new(),
            pending_deletes: VecDeque::new(),
            rng: SplitMix64::new(seed),
            dirt: DirtModel::new(4.0, seed ^ 0x5eed),
        }
    }

    /// A lightly-loaded server (Fig. 8): populate `keys` 4 KB values then
    /// serve random GETs at a low rate indefinitely-ish.
    pub fn lightly_loaded(keys: u64, requests: u64, seed: u64) -> Self {
        let capacity = keys * 2;
        Self::new(
            capacity,
            vec![
                RedisOp::Insert { keys, value_pages: 1, think: 100 },
                RedisOp::Serve { requests, think: 20_000 },
            ],
            seed,
        )
    }

    /// Allocates `pages` from the free list (first fit) or the bump
    /// cursor. Returns the first page, or `None` if the arena is full.
    fn alloc_value(&mut self, pages: u64) -> Option<u64> {
        if let Some(i) = self.free_chunks.iter().position(|(_, sz)| *sz >= pages) {
            let (start, sz) = self.free_chunks[i];
            if sz == pages {
                self.free_chunks.swap_remove(i);
            } else {
                self.free_chunks[i] = (start + pages, sz - pages);
            }
            return Some(start);
        }
        if self.bump + pages <= self.capacity_pages {
            let start = self.bump;
            self.bump += pages;
            return Some(start);
        }
        None
    }
}

impl Workload for RedisKv {
    fn name(&self) -> &str {
        "redis"
    }

    fn next_op(&mut self) -> Option<MemOp> {
        if !self.mmapped {
            self.mmapped = true;
            return Some(MemOp::Mmap {
                start: Vpn(0),
                pages: self.capacity_pages,
                kind: VmaKind::Anon,
            });
        }
        // Drain pending deletions one madvise at a time.
        if let Some((start, pages)) = self.pending_deletes.pop_front() {
            return Some(MemOp::Madvise { start: Vpn(start), pages });
        }
        let op = self.script.front().copied()?;
        match op {
            RedisOp::Insert { keys, value_pages, think } => {
                let batch = KEY_CHUNK.min(keys);
                // Contiguity: consecutive bump allocations coalesce into
                // one range op when possible.
                let mut vpns: Vec<Vpn> = Vec::new();
                let mut inserted = 0;
                while inserted < batch {
                    let Some(start) = self.alloc_value(value_pages) else { break };
                    self.live.push((start, value_pages));
                    for p in start..start + value_pages {
                        vpns.push(Vpn(p));
                    }
                    inserted += 1;
                }
                // Update or retire the script entry.
                let remaining = keys - inserted;
                if remaining == 0 || inserted == 0 {
                    self.script.pop_front();
                } else if let Some(RedisOp::Insert { keys, .. }) = self.script.front_mut() {
                    *keys = remaining;
                }
                if vpns.is_empty() {
                    // Arena exhausted: skip to the next phase.
                    return self.next_op();
                }
                Some(MemOp::TouchList { vpns, write: true, think })
            }
            RedisOp::DeleteFrac { fraction } => {
                self.script.pop_front();
                let mut kept = Vec::with_capacity(self.live.len());
                for (start, pages) in std::mem::take(&mut self.live) {
                    if self.rng.unit() < fraction {
                        self.pending_deletes.push_back((start, pages));
                        self.free_chunks.push((start, pages));
                    } else {
                        kept.push((start, pages));
                    }
                }
                self.live = kept;
                self.next_op()
            }
            RedisOp::Serve { requests, think } => {
                if self.live.is_empty() {
                    self.script.pop_front();
                    return self.next_op();
                }
                let batch = KEY_CHUNK.min(requests);
                let vpns: Vec<Vpn> = (0..batch)
                    .map(|_| {
                        let (start, pages) = self.live[self.rng.below(self.live.len() as u64) as usize];
                        Vpn(start + self.rng.below(pages))
                    })
                    .collect();
                let remaining = requests - batch;
                if remaining == 0 {
                    self.script.pop_front();
                } else if let Some(RedisOp::Serve { requests, .. }) = self.script.front_mut() {
                    *requests = remaining;
                }
                Some(MemOp::TouchList { vpns, write: false, think })
            }
            RedisOp::Pause { cycles } => {
                self.script.pop_front();
                Some(MemOp::Compute { cycles })
            }
        }
    }

    fn dirt_offset(&mut self) -> u16 {
        self.dirt.sample()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hawkeye_kernel::{BasePagesOnly, KernelConfig, Simulator};

    #[test]
    fn insert_then_delete_releases_memory() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        let pid = sim.spawn(Box::new(RedisKv::new(
            32 * 512,
            vec![
                RedisOp::Insert { keys: 8000, value_pages: 1, think: 50 },
                RedisOp::DeleteFrac { fraction: 0.8 },
                RedisOp::Pause { cycles: 1_000_000 },
            ],
            3,
        )));
        sim.run();
        let p = sim.machine().process(pid).unwrap();
        assert!(p.is_finished() && !p.is_oom());
        assert_eq!(p.stats().faults, 8000);
        // ~80% deleted; the rest freed at exit.
        assert_eq!(sim.machine().pm().allocated_pages(), 1);
    }

    #[test]
    fn freed_chunks_are_reused_for_small_values() {
        let mut r = RedisKv::new(
            1024,
            vec![
                RedisOp::Insert { keys: 100, value_pages: 1, think: 0 },
                RedisOp::DeleteFrac { fraction: 1.0 },
                RedisOp::Insert { keys: 50, value_pages: 1, think: 0 },
            ],
            5,
        );
        let mut max_vpn = 0;
        while let Some(op) = r.next_op() {
            if let MemOp::TouchList { vpns, .. } = op {
                max_vpn = max_vpn.max(vpns.iter().map(|v| v.0).max().unwrap());
            }
        }
        assert!(max_vpn < 100, "second insert reused freed pages (max vpn {max_vpn})");
    }

    #[test]
    fn large_values_cannot_reuse_small_holes() {
        // The Fig. 1 P3 situation: 4 KB holes cannot host 2 MB values.
        let mut r = RedisKv::new(
            8 * 512,
            vec![
                RedisOp::Insert { keys: 512, value_pages: 1, think: 0 },
                RedisOp::DeleteFrac { fraction: 0.9 },
                RedisOp::Insert { keys: 2, value_pages: 512, think: 0 },
            ],
            5,
        );
        let mut big_value_start = None;
        while let Some(op) = r.next_op() {
            if let MemOp::TouchList { vpns, .. } = op {
                if vpns.len() >= 512 {
                    big_value_start = Some(vpns[0].0);
                }
            }
        }
        assert!(big_value_start.expect("big insert happened") >= 512,
            "2 MB values must come from fresh VA space, not 4 KB holes");
    }

    #[test]
    fn serve_touches_only_live_keys() {
        let mut sim = Simulator::new(KernelConfig::small(), Box::new(BasePagesOnly));
        let pid = sim.spawn(Box::new(RedisKv::lightly_loaded(2000, 5000, 9)));
        sim.run();
        let p = sim.machine().process(pid).unwrap();
        assert_eq!(p.stats().faults, 2000, "GETs never fault");
        assert_eq!(p.stats().touches, 2000 + 5000);
    }

    #[test]
    fn arena_exhaustion_skips_insert_gracefully() {
        let mut r = RedisKv::new(
            64,
            vec![RedisOp::Insert { keys: 1000, value_pages: 1, think: 0 }],
            5,
        );
        let mut touched = 0;
        while let Some(op) = r.next_op() {
            if let MemOp::TouchList { vpns, .. } = op {
                touched += vpns.len();
            }
        }
        assert_eq!(touched, 64, "stops at capacity without panicking");
    }
}
