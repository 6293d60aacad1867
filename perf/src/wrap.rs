//! Forwarding wrappers that time the `policy` and `workloads` layers
//! from outside.
//!
//! Both wrappers forward every trait method unchanged, so a wrapped run is
//! bit-identical to a bare one (a test pins the digests). Per-call work is
//! aggregated into a count, a total and a log-histogram rather than one
//! span per call: faults and ops run to millions per repetition.

use hawkeye_kernel::{FaultAction, HugePagePolicy, Machine, MemOp, Steering, Workload};
use hawkeye_metrics::LogHistogram;
use hawkeye_vm::Vpn;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Count, total and distribution of one kind of call, in host nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct CallStats {
    /// Calls made.
    pub count: u64,
    /// Host nanoseconds spent inside them.
    pub total_ns: u64,
    /// Per-call host nanoseconds.
    pub hist: LogHistogram,
}

impl CallStats {
    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.hist.observe(ns);
    }
}

/// What the policy wrapper observed. `on_release`, `on_exit` and
/// `on_steer` are forwarded untimed: their host time counts as `kernel`.
#[derive(Debug, Default)]
pub struct PolicyLog {
    /// `on_fault` calls.
    pub fault: CallStats,
    /// `on_tick` calls.
    pub tick: CallStats,
    /// Every `on_tick` duration in nanoseconds, for an exact p99.
    pub tick_ns: Vec<f64>,
}

/// What the workload wrappers of one simulation observed.
#[derive(Debug, Default)]
pub struct OpLog {
    /// `next_op` calls.
    pub next_op: CallStats,
    /// Touched pages in emission order, up to `capture_limit`.
    pub vpns: Vec<Vpn>,
    /// How many touched pages to record (0 records none).
    pub capture_limit: usize,
}

impl OpLog {
    fn capture(&mut self, op: &MemOp) {
        let room = self.capture_limit.saturating_sub(self.vpns.len());
        if room == 0 {
            return;
        }
        match op {
            MemOp::Touch { vpn, .. } => self.vpns.push(*vpn),
            MemOp::TouchRange {
                start,
                pages,
                stride,
                ..
            } => {
                let stride = (*stride).max(1);
                let n = (*pages).min(room as u64);
                self.vpns.extend((0..n).map(|i| Vpn(start.0 + i * stride)));
            }
            MemOp::TouchList { vpns, .. } => {
                self.vpns.extend_from_slice(&vpns[..vpns.len().min(room)]);
            }
            MemOp::Mmap { .. }
            | MemOp::Munmap { .. }
            | MemOp::Madvise { .. }
            | MemOp::Compute { .. } => {}
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// A policy that times `on_fault` and `on_tick` of the policy it wraps.
pub struct TimedPolicy {
    inner: Box<dyn HugePagePolicy>,
    log: Arc<Mutex<PolicyLog>>,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn HugePagePolicy>, log: Arc<Mutex<PolicyLog>>) -> Self {
        TimedPolicy { inner, log }
    }
}

impl HugePagePolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_fault(&mut self, m: &mut Machine, pid: u32, vpn: Vpn) -> FaultAction {
        let t0 = Instant::now();
        let action = self.inner.on_fault(m, pid, vpn);
        let ns = elapsed_ns(t0);
        self.log.lock().expect("policy log lock").fault.record(ns);
        action
    }

    fn on_tick(&mut self, m: &mut Machine) {
        let t0 = Instant::now();
        self.inner.on_tick(m);
        let ns = elapsed_ns(t0);
        let mut log = self.log.lock().expect("policy log lock");
        log.tick.record(ns);
        log.tick_ns.push(ns as f64);
    }

    fn on_release(&mut self, m: &mut Machine, pid: u32, start: Vpn, pages: u64) {
        self.inner.on_release(m, pid, start, pages);
    }

    fn on_exit(&mut self, m: &mut Machine, pid: u32) {
        self.inner.on_exit(m, pid);
    }

    fn on_steer(&mut self, m: &mut Machine, s: &Steering) {
        self.inner.on_steer(m, s);
    }
}

/// A workload that times `next_op` of the workload it wraps and can
/// record the pages its ops touch.
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    log: Arc<Mutex<OpLog>>,
}

impl TimedWorkload {
    /// Wraps `inner`, recording into `log`.
    pub fn new(inner: Box<dyn Workload>, log: Arc<Mutex<OpLog>>) -> Self {
        TimedWorkload { inner, log }
    }
}

impl Workload for TimedWorkload {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_op(&mut self) -> Option<MemOp> {
        let t0 = Instant::now();
        let op = self.inner.next_op();
        let ns = elapsed_ns(t0);
        let mut log = self.log.lock().expect("op log lock");
        log.next_op.record(ns);
        if let Some(op) = &op {
            log.capture(op);
        }
        op
    }

    fn dirt_offset(&mut self) -> u16 {
        self.inner.dirt_offset()
    }
}
