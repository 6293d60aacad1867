//! Heap regression test: an exited process keeps only its statistics.
//!
//! Runs short processes one after another beside a long-lived one, under
//! a counting global allocator. Each short process maps and touches
//! several 2 MiB regions (page-table chunks) and its generator owns a
//! large table. Exit must release both, so live heap after the last exit
//! stays within a small fixed slack of live heap after the first.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use hawkeye_kernel::workload::script;
use hawkeye_kernel::{BasePagesOnly, KernelConfig, MemOp, Simulator, Workload};
use hawkeye_metrics::Cycles;
use hawkeye_vm::{VmaKind, Vpn};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` unchanged; the counter only
// records sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Regions each short process maps and writes.
const REGIONS: u64 = 8;
/// Bytes of the table each short generator owns.
const TABLE_BYTES: usize = 1 << 20;
/// Short processes run one after another.
const SHORT: usize = 16;
/// Live-heap growth allowed across the short processes' exits: what the
/// entries that outlive them keep (their statistics and PMU rows) plus
/// allocator noise, far below one process's page table or table.
const SLACK: isize = 64 << 10;

/// A generator that replays a script and draws its dirt offsets from a
/// large table, standing in for a workload's key or index tables.
struct Short {
    ops: Box<dyn Workload>,
    table: Vec<u8>,
    next: usize,
}

impl Short {
    fn new() -> Self {
        let pages = REGIONS * 512;
        let ops = script(
            "short",
            vec![
                MemOp::Mmap { start: Vpn(0), pages, kind: VmaKind::Anon },
                MemOp::TouchRange { start: Vpn(0), pages, write: true, think: 10, stride: 1, repeats: 1 },
            ],
        );
        let table = (0..TABLE_BYTES).map(|i| 1 + (i % 31) as u8).collect();
        Short { ops, table, next: 0 }
    }
}

impl Workload for Short {
    fn name(&self) -> &str {
        "short"
    }

    fn next_op(&mut self) -> Option<MemOp> {
        self.ops.next_op()
    }

    fn dirt_offset(&mut self) -> u16 {
        self.next = (self.next + 4099) % self.table.len();
        u16::from(self.table[self.next])
    }
}

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn exited_processes_release_page_tables_and_generators() {
    let mut cfg = KernelConfig::small();
    cfg.sample_period = Cycles::ZERO;
    let mut sim = Simulator::new(cfg, Box::new(BasePagesOnly));
    sim.spawn(script(
        "long",
        vec![
            MemOp::Mmap { start: Vpn(0), pages: 1024, kind: VmaKind::Anon },
            MemOp::TouchRange { start: Vpn(0), pages: 1024, write: true, think: 10, stride: 1, repeats: 1 },
            MemOp::Compute { cycles: u64::MAX / 2 },
        ],
    ));
    let mut after_first = None;
    for _ in 0..SHORT {
        let pid = sim.spawn(Box::new(Short::new()));
        sim.run_while(|m| m.process(pid).is_some_and(|p| !p.is_finished()));
        let p = sim.machine().process(pid).expect("exists");
        assert!(p.is_finished() && !p.is_oom());
        assert_eq!(p.stats().touches, REGIONS * 512);
        after_first.get_or_insert(live());
    }
    let (first, last) = (after_first.expect("ran"), live());
    assert!(
        last - first <= SLACK,
        "live heap grew {} KiB over {} exits (first exit {} KiB, last {} KiB)",
        (last - first) >> 10,
        SHORT - 1,
        first >> 10,
        last >> 10,
    );
}
