//! Structured event tracing for the HawkEye simulator.
//!
//! A journal is a bounded ring of [`TraceRecord`]s: typed kernel/VM events
//! stamped with simulated [`Cycles`] and the faulting pid. Emit sites across
//! the stack hold a [`TraceSink`] — a cheap cloneable handle that is a no-op
//! when tracing is disabled, so instrumentation costs one branch on the
//! simulated hot paths and cannot perturb counters.
//!
//! Scoping is per-thread: the bench scenario engine calls [`scope::begin`]
//! before running a scenario and [`scope::end`] after, collecting the journal
//! for that scenario only. Machines created inside a scope attach to its
//! buffer via [`TraceSink::attach_current`] and receive a per-scope machine id
//! in creation order, which keeps journals deterministic under the ordered
//! bench pool (each scenario runs start-to-finish on one worker thread).
//!
//! Finished journals persist as a target's `.trace.json` artifact, whose
//! writers and reader live together in [`doc`].

#![warn(missing_docs)]

pub mod doc;

pub use doc::{parse_trace, trace_doc_string, trace_json, ScenarioTrace, TraceDoc};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use hawkeye_metrics::Cycles;

/// Default ring capacity for a per-scenario journal: enough to keep every
/// daemon decision of a long bench run while bounding a fault-heavy scenario
/// to a few MiB of records.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// A typed simulator event.
///
/// Payload fields are raw integers (bools as flags) so the journal can be
/// serialized generically via [`TraceEvent::fields`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A minor/major fault was serviced in the touch path.
    Fault {
        /// Faulting virtual page number (guest-physical frame for EPT faults).
        vpn: u64,
        /// The fault was satisfied with a huge mapping.
        huge: bool,
        /// The fault was a copy-on-write break of the shared zero page.
        cow: bool,
        /// Simulated cycles charged for servicing the fault.
        cycles: u64,
    },
    /// khugepaged-style promotion of a huge-page-aligned region.
    Promote {
        /// Huge virtual page number (vpn >> 9).
        hvpn: u64,
        /// 4 KiB pages copied from existing small mappings.
        copied: u32,
        /// 4 KiB pages filled fresh (unmapped or zero-backed).
        filled: u32,
        /// Simulated cycles charged for the promotion.
        cycles: u64,
    },
    /// A huge mapping was split back to 4 KiB mappings.
    Demote {
        /// Huge virtual page number.
        hvpn: u64,
        /// Simulated cycles charged (0 when folded into another operation).
        cycles: u64,
    },
    /// One compaction pass finished.
    Compact {
        /// 4 KiB pages migrated during the pass.
        migrated: u64,
        /// Fully-free huge blocks produced by the pass.
        huge_blocks: u64,
    },
    /// The async pre-zero thread zeroed free pages.
    PreZero {
        /// 4 KiB pages moved to the zeroed free list.
        pages: u64,
    },
    /// Bloat-recovery scanned a huge region for zero-page dedup.
    Dedup {
        /// Huge virtual page number scanned.
        hvpn: u64,
        /// Zero-filled 4 KiB pages found in the region.
        zero_pages: u32,
        /// The region crossed the threshold and was demoted + deduped.
        demoted: bool,
        /// Simulated cycles charged for the scan (and dedup, if any).
        cycles: u64,
    },
    /// An allocation failed after reclaim: the process is OOM-killed.
    Oom,
    /// Per-quantum PMU counter snapshot (emitted when a sampling policy
    /// drains the per-pid window).
    QuantumEnd {
        /// TLB-miss page-walk cycles on the load path this window.
        load_walk: u64,
        /// TLB-miss page-walk cycles on the store path this window.
        store_walk: u64,
        /// Unhalted cycles this window.
        unhalted: u64,
        /// Page walks performed this window.
        walks: u64,
    },
    /// Periodic cycle-attribution snapshot from the metrics registry:
    /// cumulative per-subsystem cycle totals for the emitting machine.
    /// Emitted at each metrics sample when both a trace scope and a
    /// registry scope are active. CPU-side fields sum to `unhalted`
    /// (the residue the analyzer checks); `daemon` is the background
    /// ledger's total.
    CycleSample {
        /// Cumulative CPU cycles spent in page walks.
        walk: u64,
        /// Cumulative CPU cycles spent in fault handling / PT maintenance.
        fault: u64,
        /// Cumulative CPU cycles spent zeroing pages.
        zero: u64,
        /// Cumulative CPU cycles spent copying pages.
        copy: u64,
        /// Cumulative CPU cycles spent in content scans.
        scan: u64,
        /// Cumulative CPU cycles spent in compaction.
        compact: u64,
        /// Cumulative CPU cycles spent deduplicating zero pages.
        dedup: u64,
        /// Cumulative CPU cycles spent in application compute.
        idle: u64,
        /// Cumulative `CPU_CLK_UNHALTED` at the snapshot.
        unhalted: u64,
        /// Cumulative daemon-ledger cycles (all subsystems).
        daemon: u64,
    },
    /// Per-core lock-contention summary from the multi-core replay
    /// (`cores > 1` runs only). One record per simulated core, emitted at
    /// run end. Values come from the *seeded deterministic* replay, so
    /// journals stay byte-identical for a given seed/core count even
    /// though they describe contention.
    Contention {
        /// Simulated core id.
        core: u64,
        /// Core role: 0 = application, 1 = khugepaged, 2 = pre-zero.
        role: u64,
        /// Page-state lock acquisitions performed by this core.
        acquisitions: u64,
        /// Failed CAS attempts while acquiring page-state locks.
        cas_retries: u64,
        /// Simulated cycles this core stalled waiting for locks/arenas.
        stall_cycles: u64,
    },
    /// An SLO burn-rate rule started breaching: both the fast and slow
    /// epoch-window means crossed the rule's threshold × burn factor.
    /// Emitted by the fleet telemetry pipeline (`hawkeye-obs`) into a
    /// synthetic `obs/slo` journal; `machine` carries the cohort index.
    SloBreach {
        /// Index of the rule in the evaluated rule set (see the
        /// `rules` section of the obs document / ALERTS.md).
        rule: u64,
        /// Fleet epoch at which the breach was detected.
        epoch: u64,
        /// Cohort index the rule was evaluated against.
        cohort: u64,
    },
    /// A previously-breaching SLO burn-rate rule recovered: at least one
    /// window mean moved back inside the threshold × burn band.
    SloRecover {
        /// Index of the rule in the evaluated rule set.
        rule: u64,
        /// Fleet epoch at which the recovery was detected.
        epoch: u64,
        /// Cohort index the rule was evaluated against.
        cohort: u64,
    },
}

impl TraceEvent {
    /// Stable lower-case tag for serialization.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::Promote { .. } => "promote",
            TraceEvent::Demote { .. } => "demote",
            TraceEvent::Compact { .. } => "compact",
            TraceEvent::PreZero { .. } => "prezero",
            TraceEvent::Dedup { .. } => "dedup",
            TraceEvent::Oom => "oom",
            TraceEvent::QuantumEnd { .. } => "quantum_end",
            TraceEvent::CycleSample { .. } => "cycle_sample",
            TraceEvent::Contention { .. } => "contention",
            TraceEvent::SloBreach { .. } => "slo_breach",
            TraceEvent::SloRecover { .. } => "slo_recover",
        }
    }

    /// Payload as ordered `(name, value)` pairs; bools encode as 0/1.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            TraceEvent::Fault { vpn, huge, cow, cycles } => vec![
                ("vpn", vpn),
                ("huge", huge as u64),
                ("cow", cow as u64),
                ("cycles", cycles),
            ],
            TraceEvent::Promote { hvpn, copied, filled, cycles } => vec![
                ("hvpn", hvpn),
                ("copied", copied as u64),
                ("filled", filled as u64),
                ("cycles", cycles),
            ],
            TraceEvent::Demote { hvpn, cycles } => {
                vec![("hvpn", hvpn), ("cycles", cycles)]
            }
            TraceEvent::Compact { migrated, huge_blocks } => {
                vec![("migrated", migrated), ("huge_blocks", huge_blocks)]
            }
            TraceEvent::PreZero { pages } => vec![("pages", pages)],
            TraceEvent::Dedup { hvpn, zero_pages, demoted, cycles } => vec![
                ("hvpn", hvpn),
                ("zero_pages", zero_pages as u64),
                ("demoted", demoted as u64),
                ("cycles", cycles),
            ],
            TraceEvent::Oom => vec![],
            TraceEvent::QuantumEnd { load_walk, store_walk, unhalted, walks } => vec![
                ("load_walk", load_walk),
                ("store_walk", store_walk),
                ("unhalted", unhalted),
                ("walks", walks),
            ],
            TraceEvent::CycleSample {
                walk,
                fault,
                zero,
                copy,
                scan,
                compact,
                dedup,
                idle,
                unhalted,
                daemon,
            } => vec![
                ("walk", walk),
                ("fault", fault),
                ("zero", zero),
                ("copy", copy),
                ("scan", scan),
                ("compact", compact),
                ("dedup", dedup),
                ("idle", idle),
                ("unhalted", unhalted),
                ("daemon", daemon),
            ],
            TraceEvent::Contention { core, role, acquisitions, cas_retries, stall_cycles } => vec![
                ("core", core),
                ("role", role),
                ("acquisitions", acquisitions),
                ("cas_retries", cas_retries),
                ("stall_cycles", stall_cycles),
            ],
            TraceEvent::SloBreach { rule, epoch, cohort } => {
                vec![("rule", rule), ("epoch", epoch), ("cohort", cohort)]
            }
            TraceEvent::SloRecover { rule, epoch, cohort } => {
                vec![("rule", rule), ("epoch", epoch), ("cohort", cohort)]
            }
        }
    }

    /// Reconstructs an event from its serialized `(kind, fields)` form —
    /// the inverse of [`TraceEvent::kind`] + [`TraceEvent::fields`], used
    /// by [`parse_trace`]. Field lookup is by name so
    /// readers tolerate reordered keys; returns `None` for an unknown kind
    /// or a missing field. Keys may be any string-like type, so streaming
    /// parsers can pass borrowed keys without building owned `String`s.
    pub fn from_fields<K: AsRef<str>>(kind: &str, fields: &[(K, u64)]) -> Option<TraceEvent> {
        let get = |name: &str| fields.iter().find(|(k, _)| k.as_ref() == name).map(|(_, v)| *v);
        Some(match kind {
            "fault" => TraceEvent::Fault {
                vpn: get("vpn")?,
                huge: get("huge")? != 0,
                cow: get("cow")? != 0,
                cycles: get("cycles")?,
            },
            "promote" => TraceEvent::Promote {
                hvpn: get("hvpn")?,
                copied: get("copied")? as u32,
                filled: get("filled")? as u32,
                cycles: get("cycles")?,
            },
            "demote" => TraceEvent::Demote { hvpn: get("hvpn")?, cycles: get("cycles")? },
            "compact" => TraceEvent::Compact {
                migrated: get("migrated")?,
                huge_blocks: get("huge_blocks")?,
            },
            "prezero" => TraceEvent::PreZero { pages: get("pages")? },
            "dedup" => TraceEvent::Dedup {
                hvpn: get("hvpn")?,
                zero_pages: get("zero_pages")? as u32,
                demoted: get("demoted")? != 0,
                cycles: get("cycles")?,
            },
            "oom" => TraceEvent::Oom,
            "quantum_end" => TraceEvent::QuantumEnd {
                load_walk: get("load_walk")?,
                store_walk: get("store_walk")?,
                unhalted: get("unhalted")?,
                walks: get("walks")?,
            },
            "cycle_sample" => TraceEvent::CycleSample {
                walk: get("walk")?,
                fault: get("fault")?,
                zero: get("zero")?,
                copy: get("copy")?,
                scan: get("scan")?,
                compact: get("compact")?,
                dedup: get("dedup")?,
                idle: get("idle")?,
                unhalted: get("unhalted")?,
                daemon: get("daemon")?,
            },
            "contention" => TraceEvent::Contention {
                core: get("core")?,
                role: get("role")?,
                acquisitions: get("acquisitions")?,
                cas_retries: get("cas_retries")?,
                stall_cycles: get("stall_cycles")?,
            },
            "slo_breach" => TraceEvent::SloBreach {
                rule: get("rule")?,
                epoch: get("epoch")?,
                cohort: get("cohort")?,
            },
            "slo_recover" => TraceEvent::SloRecover {
                rule: get("rule")?,
                epoch: get("epoch")?,
                cohort: get("cohort")?,
            },
            _ => return None,
        })
    }
}

/// One journal entry: an event stamped with simulated time, the pid it
/// concerns (0 for machine-global events), and the emitting machine's
/// per-scope id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time of emission.
    pub at: Cycles,
    /// Process the event concerns; 0 for machine-global events.
    pub pid: u32,
    /// Per-scope machine id (creation order within the scope).
    pub machine: u32,
    /// The event payload.
    pub event: TraceEvent,
}

/// Bounded ring of records. When full, the oldest record is overwritten so
/// the journal keeps the *newest* events; `dropped` counts overwrites.
#[derive(Debug)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    capacity: usize,
    head: usize,
    dropped: u64,
    next_machine: u32,
}

impl TraceBuffer {
    /// Create a ring holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        TraceBuffer {
            records: Vec::new(),
            capacity,
            head: 0,
            dropped: 0,
            next_machine: 0,
        }
    }

    /// Append a record, overwriting the oldest when the ring is full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.records.len() < self.capacity {
            self.records.push(rec);
        } else {
            self.records[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Allocate the next per-scope machine id.
    pub fn next_machine_id(&mut self) -> u32 {
        let id = self.next_machine;
        self.next_machine += 1;
        id
    }

    /// Total records ever pushed (kept + overwritten). Because the ring
    /// keeps the newest records, the oldest *kept* record has sequence
    /// number `dropped()`, so `pushed()` is also the sequence number the
    /// next push will get — a natural cursor for [`TraceBuffer::tail`].
    pub fn pushed(&self) -> u64 {
        self.dropped + self.records.len() as u64
    }

    /// Records with sequence number ≥ `since`, in emission order, without
    /// consuming the ring. A reader that remembers the `pushed()` value of
    /// its last read sees each record at most once; records overwritten
    /// between reads are silently skipped (the reader can detect gaps by
    /// comparing `since` against [`TraceBuffer::dropped`]).
    pub fn tail(&self, since: u64) -> Vec<TraceRecord> {
        let n = self.records.len();
        if n == 0 {
            return Vec::new();
        }
        let start = since.saturating_sub(self.dropped).min(n as u64) as usize;
        (start..n).map(|i| self.records[(self.head + i) % n].clone()).collect()
    }

    /// Consume the ring, returning records in emission order plus the
    /// overwrite count.
    pub fn drain(mut self) -> (Vec<TraceRecord>, u64) {
        self.records.rotate_left(self.head);
        (self.records, self.dropped)
    }
}

/// A finished scenario journal: records in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Journal {
    /// Records in emission order (oldest kept first).
    pub records: Vec<TraceRecord>,
    /// Records overwritten because the ring filled up.
    pub dropped: u64,
}

impl Journal {
    /// Drains a shared buffer (e.g. one obtained via [`scope::detach`])
    /// into a finished journal. Sinks still holding the buffer keep
    /// writing into a drained 1-slot ring, harmlessly — same contract as
    /// [`scope::end`].
    pub fn drain_shared(shared: &Arc<Mutex<TraceBuffer>>) -> Journal {
        let mut buf = match shared.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let full = std::mem::replace(&mut *buf, TraceBuffer::new(1));
        let (records, dropped) = full.drain();
        Journal { records, dropped }
    }
}

/// Cheap cloneable emit handle. Disabled sinks (the default) are a no-op:
/// `emit`/`set_now` early-return on one branch, so instrumented code runs
/// identically whether or not a trace scope is active.
#[derive(Debug, Clone)]
pub struct TraceSink {
    shared: Option<Arc<Mutex<TraceBuffer>>>,
    machine: u32,
    now: Arc<AtomicU64>,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink {
            shared: None,
            machine: 0,
            now: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl TraceSink {
    /// A permanently-disabled sink.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// Attach to the current thread's trace scope, if one is active,
    /// claiming the next machine id in that scope. Returns a disabled sink
    /// otherwise.
    pub fn attach_current() -> Self {
        match scope::current() {
            Some(shared) => {
                let machine = match shared.lock() {
                    Ok(mut buf) => buf.next_machine_id(),
                    Err(_) => return TraceSink::disabled(),
                };
                TraceSink {
                    shared: Some(shared),
                    machine,
                    now: Arc::new(AtomicU64::new(0)),
                }
            }
            None => TraceSink::disabled(),
        }
    }

    /// True when emits reach a buffer.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Advance the sink's simulated clock; clones of this sink (handed to
    /// subsystems of the same machine) share it.
    #[inline]
    pub fn set_now(&self, now: Cycles) {
        if self.shared.is_none() {
            return;
        }
        self.now.store(now.get(), Ordering::Relaxed);
    }

    /// Record an event for `pid`, stamped with the sink's current simulated
    /// time. No-op when disabled.
    #[inline]
    pub fn emit(&self, pid: u32, event: TraceEvent) {
        let Some(shared) = &self.shared else { return };
        let rec = TraceRecord {
            at: Cycles::new(self.now.load(Ordering::Relaxed)),
            pid,
            machine: self.machine,
            event,
        };
        if let Ok(mut buf) = shared.lock() {
            buf.push(rec);
        }
    }
}

/// Per-thread trace scopes. A scope owns the buffer that sinks created on
/// this thread (between `begin` and `end`) emit into.
pub mod scope {
    use super::{Arc, Journal, Mutex, RefCell, TraceBuffer};

    thread_local! {
        static CURRENT: RefCell<Option<Arc<Mutex<TraceBuffer>>>> =
            const { RefCell::new(None) };
    }

    /// Open a trace scope on this thread with the given ring capacity.
    /// Replaces any previous scope (its journal is discarded).
    pub fn begin(capacity: usize) {
        CURRENT.with(|c| {
            *c.borrow_mut() = Some(Arc::new(Mutex::new(TraceBuffer::new(capacity))));
        });
    }

    /// Close this thread's scope, returning its journal. Sinks still holding
    /// the buffer keep writing into a drained 1-slot ring, harmlessly.
    pub fn end() -> Option<Journal> {
        let shared = CURRENT.with(|c| c.borrow_mut().take())?;
        let mut buf = shared.lock().ok()?;
        let full = std::mem::replace(&mut *buf, TraceBuffer::new(1));
        let (records, dropped) = full.drain();
        Some(Journal { records, dropped })
    }

    /// Detach this thread's scope *without* draining it: the shared buffer
    /// is returned and sinks already attached to it keep emitting into it.
    /// This is how long-lived owners (the fleet orchestrator) capture a
    /// machine's journal beyond the `begin`/`end` bracket of its creating
    /// thread: begin a scope, build the machine (its sinks attach), detach
    /// the buffer, and read it later via [`TraceBuffer::tail`] or
    /// [`super::Journal::drain_shared`] from whatever thread owns the
    /// machine by then.
    pub fn detach() -> Option<Arc<Mutex<TraceBuffer>>> {
        CURRENT.with(|c| c.borrow_mut().take())
    }

    /// True when a scope is open on this thread.
    pub fn active() -> bool {
        CURRENT.with(|c| c.borrow().is_some())
    }

    pub(super) fn current() -> Option<Arc<Mutex<TraceBuffer>>> {
        CURRENT.with(|c| c.borrow().clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            at: Cycles::new(i),
            pid: 1,
            machine: 0,
            event: TraceEvent::PreZero { pages: i },
        }
    }

    #[test]
    fn ring_keeps_newest_on_wraparound() {
        let mut buf = TraceBuffer::new(4);
        for i in 0..7 {
            buf.push(rec(i));
        }
        assert_eq!(buf.len(), 4);
        assert_eq!(buf.dropped(), 3);
        let (records, dropped) = buf.drain();
        assert_eq!(dropped, 3);
        let ats: Vec<u64> = records.iter().map(|r| r.at.get()).collect();
        assert_eq!(ats, vec![3, 4, 5, 6]);
    }

    #[test]
    fn ring_under_capacity_preserves_order() {
        let mut buf = TraceBuffer::new(8);
        for i in 0..5 {
            buf.push(rec(i));
        }
        let (records, dropped) = buf.drain();
        assert_eq!(dropped, 0);
        let ats: Vec<u64> = records.iter().map(|r| r.at.get()).collect();
        assert_eq!(ats, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut buf = TraceBuffer::new(0);
        buf.push(rec(1));
        buf.push(rec(2));
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.dropped(), 1);
        let (records, _) = buf.drain();
        assert_eq!(records[0].at.get(), 2);
    }

    #[test]
    fn tail_cursors_over_a_wrapping_ring() {
        let mut buf = TraceBuffer::new(4);
        for i in 0..3 {
            buf.push(rec(i));
        }
        assert_eq!(buf.pushed(), 3);
        let ats: Vec<u64> = buf.tail(0).iter().map(|r| r.at.get()).collect();
        assert_eq!(ats, vec![0, 1, 2]);
        let cursor = buf.pushed();
        for i in 3..9 {
            buf.push(rec(i));
        }
        // Sequences 3..9 were pushed since the cursor; 3 and 4 were
        // overwritten (capacity 4 keeps 5..9's newest four).
        assert_eq!(buf.pushed(), 9);
        let ats: Vec<u64> = buf.tail(cursor).iter().map(|r| r.at.get()).collect();
        assert_eq!(ats, vec![5, 6, 7, 8]);
        assert!(buf.tail(buf.pushed()).is_empty(), "caught-up cursor sees nothing");
    }

    #[test]
    fn detach_keeps_sinks_live_and_drain_shared_collects() {
        scope::begin(16);
        let sink = TraceSink::attach_current();
        sink.emit(1, TraceEvent::PreZero { pages: 1 });
        let shared = scope::detach().expect("buffer");
        assert!(!scope::active(), "detach closes the thread scope");
        // The sink keeps emitting into the detached buffer.
        sink.emit(1, TraceEvent::PreZero { pages: 2 });
        assert_eq!(shared.lock().expect("buf").pushed(), 2);
        let journal = Journal::drain_shared(&shared);
        assert_eq!(journal.records.len(), 2);
        assert_eq!(journal.dropped, 0);
        // Post-drain emits land in the 1-slot replacement ring, harmlessly.
        sink.emit(1, TraceEvent::Oom);
        assert_eq!(Journal::drain_shared(&shared).records.len(), 1);
    }

    #[test]
    fn disabled_sink_is_noop() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        sink.set_now(Cycles::new(99));
        sink.emit(1, TraceEvent::Oom);
        // Nothing to observe: the point is that neither call panics or
        // allocates a buffer.
        assert!(!sink.is_enabled());
    }

    #[test]
    fn attach_outside_scope_is_disabled() {
        assert!(!scope::active());
        let sink = TraceSink::attach_current();
        assert!(!sink.is_enabled());
        sink.emit(1, TraceEvent::Oom);
        assert!(scope::end().is_none());
    }

    #[test]
    fn scope_roundtrip_collects_records() {
        scope::begin(16);
        assert!(scope::active());
        let a = TraceSink::attach_current();
        let b = TraceSink::attach_current();
        assert!(a.is_enabled() && b.is_enabled());
        a.set_now(Cycles::new(10));
        a.emit(1, TraceEvent::Fault { vpn: 7, huge: false, cow: true, cycles: 300 });
        b.set_now(Cycles::new(20));
        b.emit(2, TraceEvent::Demote { hvpn: 3, cycles: 0 });
        let journal = scope::end().expect("journal");
        assert!(!scope::active());
        assert_eq!(journal.dropped, 0);
        assert_eq!(journal.records.len(), 2);
        // Machine ids were handed out in creation order.
        assert_eq!(journal.records[0].machine, 0);
        assert_eq!(journal.records[1].machine, 1);
        assert_eq!(journal.records[0].at, Cycles::new(10));
        assert_eq!(journal.records[1].pid, 2);
        // Stale sinks keep working after the scope closed.
        a.emit(1, TraceEvent::Oom);
        assert!(scope::end().is_none());
    }

    #[test]
    fn clones_share_the_clock() {
        scope::begin(16);
        let sink = TraceSink::attach_current();
        let clone = sink.clone();
        sink.set_now(Cycles::new(42));
        clone.emit(1, TraceEvent::Oom);
        let journal = scope::end().expect("journal");
        assert_eq!(journal.records[0].at, Cycles::new(42));
    }

    /// One event of every kind.
    pub(crate) fn every_variant() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Fault { vpn: 7, huge: true, cow: false, cycles: 6095 },
            TraceEvent::Promote { hvpn: 5, copied: 3, filled: 2, cycles: 100 },
            TraceEvent::Demote { hvpn: 9, cycles: 0 },
            TraceEvent::Compact { migrated: 128, huge_blocks: 4 },
            TraceEvent::PreZero { pages: 512 },
            TraceEvent::Dedup { hvpn: 1, zero_pages: 400, demoted: true, cycles: 77 },
            TraceEvent::Oom,
            TraceEvent::QuantumEnd { load_walk: 1, store_walk: 2, unhalted: 3, walks: 4 },
            TraceEvent::CycleSample {
                walk: 1,
                fault: 2,
                zero: 3,
                copy: 4,
                scan: 5,
                compact: 6,
                dedup: 7,
                idle: 8,
                unhalted: 36,
                daemon: 9,
            },
            TraceEvent::Contention {
                core: 3,
                role: 1,
                acquisitions: 250,
                cas_retries: 17,
                stall_cycles: 42_000,
            },
            TraceEvent::SloBreach { rule: 2, epoch: 5, cohort: 0 },
            TraceEvent::SloRecover { rule: 2, epoch: 7, cohort: 1 },
        ]
    }

    #[test]
    fn from_fields_inverts_fields_for_every_variant() {
        for ev in every_variant() {
            let fields: Vec<(String, u64)> =
                ev.fields().into_iter().map(|(k, v)| (k.to_string(), v)).collect();
            let back = TraceEvent::from_fields(ev.kind(), &fields).expect("round-trip");
            assert_eq!(back, ev);
        }
        let none: &[(&str, u64)] = &[];
        assert!(TraceEvent::from_fields("nonsense", none).is_none());
        assert!(TraceEvent::from_fields("fault", none).is_none(), "missing fields reject");
    }

    #[test]
    fn event_kind_and_fields_are_stable() {
        let ev = TraceEvent::Promote { hvpn: 5, copied: 3, filled: 2, cycles: 100 };
        assert_eq!(ev.kind(), "promote");
        assert_eq!(
            ev.fields(),
            vec![("hvpn", 5), ("copied", 3), ("filled", 2), ("cycles", 100)]
        );
        assert_eq!(TraceEvent::Oom.kind(), "oom");
        assert!(TraceEvent::Oom.fields().is_empty());
        let slo = TraceEvent::SloBreach { rule: 1, epoch: 4, cohort: 0 };
        assert_eq!(slo.kind(), "slo_breach");
        assert_eq!(slo.fields(), vec![("rule", 1), ("epoch", 4), ("cohort", 0)]);
        assert_eq!(
            TraceEvent::SloRecover { rule: 1, epoch: 6, cohort: 0 }.kind(),
            "slo_recover"
        );
    }
}
