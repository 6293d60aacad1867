//! FNV-1a digest of a finished simulation's simulated outputs.
//!
//! Host time may vary; what the simulator computes may not. Two
//! repetitions of one workload and seed must produce the same digest, and
//! the recorded seeds must reproduce `perf/expected_digests.txt`.

use hawkeye_kernel::Machine;
use hawkeye_mem::Pfn;

/// A 64-bit FNV-1a hash over little-endian `u64` words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word into the hash.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of every process's `ProcStats`, CPU time, finish time, OOM flag
/// and lifetime PMU window, the machine's `KernelStats`, every frame's
/// content, and the final simulated time.
pub fn machine(m: &Machine) -> Fnv {
    let mut h = Fnv::default();
    for pid in m.pids() {
        let p = m.process(pid).expect("listed pid exists");
        let s = p.stats();
        h.word(pid as u64);
        for x in [
            s.faults,
            s.huge_faults,
            s.cow_faults,
            s.fault_cycles.get(),
            s.touches,
            s.accesses,
        ] {
            h.word(x);
        }
        h.word(p.cpu_time().get());
        h.word(p.finish_time().map_or(u64::MAX, |t| t.get()));
        h.word(p.is_oom() as u64);
        let w = m.mmu().lifetime(pid);
        for x in [
            w.load_walk.get(),
            w.store_walk.get(),
            w.unhalted.get(),
            w.walks,
        ] {
            h.word(x);
        }
    }
    let k = m.stats();
    for x in [
        k.promotions,
        k.demotions,
        k.promote_copied_pages,
        k.deduped_zero_pages,
        k.bloat_scans,
        k.prezeroed_pages,
        k.sync_zeroed_pages,
        k.compaction_runs,
        k.compaction_migrated,
        k.reclaimed_pages,
        k.oom_events,
        k.daemon_cycles.get(),
    ] {
        h.word(x);
    }
    let pm = m.pm();
    for pfn in 0..pm.total_frames() {
        h.word(pm.frame(Pfn(pfn)).content().scan_bytes());
    }
    h.word(m.now().get());
    h
}
