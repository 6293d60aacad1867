//! Metric names and units, and the statistics the benchmark reports.

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the simulator sees, from an untraced invocation.
pub const END_TO_END: [Def; 4] = [
    def("host_s", "s"),
    def("touches_per_s", "1/s"),
    def("setup_s", "s"),
    def("peak_heap_mib", "MiB"),
];

/// Per-layer counts and host times, from a traced invocation.
pub const PER_LAYER: [Def; 34] = [
    def("kernel.self_s", "s"),
    def("kernel.ns_per_touch", "ns"),
    def("kernel.faults", "count"),
    def("kernel.quanta", "count"),
    def("kernel.quanta_skipped", "count"),
    def("kernel.skip_ratio", "fraction"),
    def("kernel.quantum_us.p50", "us"),
    def("kernel.quantum_us.p99", "us"),
    def("vm.access_ns.base", "ns"),
    def("vm.access_ns.huge", "ns"),
    def("tlb.access_ns.base", "ns"),
    def("tlb.access_ns.huge", "ns"),
    def("tlb.walks", "count"),
    def("tlb.walks_per_ktouch", "1/ktouch"),
    def("mem.alloc_ns", "ns"),
    def("mem.compaction_migrated", "pages"),
    def("mem.prezeroed_pages", "pages"),
    def("mem.sync_zeroed_pages", "pages"),
    def("mem.async_zero_share", "fraction"),
    def("policy.fault_calls", "count"),
    def("policy.fault_s", "s"),
    def("policy.tick_calls", "count"),
    def("policy.tick_s", "s"),
    def("policy.tick_us.p99", "us"),
    def("policy.promotions", "count"),
    def("policy.demotions", "count"),
    def("policy.promotion_kept_ratio", "fraction"),
    def("workloads.next_op_calls", "count"),
    def("workloads.next_op_s", "s"),
    def("artifact.trace_events", "count"),
    def("artifact.bytes", "bytes"),
    def("artifact.serialize_s", "s"),
    def("artifact.parse_s", "s"),
    def("trace.overhead_ratio", "ratio"),
];

/// The median of `xs` by nearest rank: the lower middle for an even
/// count, so it is always one of the samples.
pub fn median(xs: &[f64]) -> f64 {
    hawkeye_metrics::stats::percentile(xs, 50.0)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
