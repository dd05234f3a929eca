//! Every metric the benchmark reports, with its unit and direction.
//!
//! `BENCHMARK.json` lists the same names; the self-test checks that the two
//! agree and that a run emits every one of them.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as it appears in the result object.
    pub name: &'static str,
    /// Unit string.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics of an untraced run (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("tls_wall_s", "s", "lower"),
    m("seq_wall_s", "s", "lower"),
    m("speedup", "x", "higher"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Metrics of a traced run (`--trace 1`): layer probes, the traced run's
/// counts and spans, and the attribution of the TLS wall time.
pub const PER_LAYER: &[Metric] = &[
    // runtime: ns/op probes through the public `TlsContext` API.
    m("runtime.spec_load_ns", "ns", "lower"),
    m("runtime.spec_load_hit_ns", "ns", "lower"),
    m("runtime.spec_store_ns", "ns", "lower"),
    m("runtime.rank0_load_ns", "ns", "lower"),
    m("runtime.rank0_store_ns", "ns", "lower"),
    m("runtime.direct_load_ns", "ns", "lower"),
    m("runtime.direct_store_ns", "ns", "lower"),
    m("runtime.fork_start_ns", "ns", "lower"),
    m("runtime.fork_denied_ns", "ns", "lower"),
    m("runtime.join_commit_ns", "ns", "lower"),
    m("runtime.rollback_ns", "ns", "lower"),
    m("runtime.run_empty_ns", "ns", "lower"),
    m("runtime.new_s", "s", "lower"),
    // runtime: counts from the traced run's `RunReport`.
    m("runtime.commits", "count", "higher"),
    m("runtime.rollbacks.overflow", "count", "lower"),
    m("runtime.rollbacks.conflict", "count", "lower"),
    m("runtime.rollbacks.other", "count", "lower"),
    m("runtime.commit_ratio", "ratio", "higher"),
    m("runtime.failed_forks", "count", "lower"),
    m("runtime.spec_loads", "count", "higher"),
    m("runtime.spec_stores", "count", "higher"),
    m("runtime.rank0_ops", "count", "lower"),
    m("runtime.wasted_frac", "ratio", "lower"),
    m("runtime.crit_idle_frac", "ratio", "lower"),
    // membuf: ns/op probes of the buffering and commit-log layer.
    m("membuf.memory_read_ns", "ns", "lower"),
    m("membuf.buffer_load_ns", "ns", "lower"),
    m("membuf.buffer_store_ns", "ns", "lower"),
    m("membuf.validate_ns_per_word", "ns", "lower"),
    m("membuf.commit_ns_per_word", "ns", "lower"),
    m("membuf.log_record_word_ns", "ns", "lower"),
    m("membuf.log_register_reader_ns", "ns", "lower"),
    m(
        "membuf.write_set_capacity_words.contiguous",
        "count",
        "higher",
    ),
    m(
        "membuf.write_set_capacity_words.row_interleaved",
        "count",
        "higher",
    ),
    // adaptive: the governor's per-fork and per-join bookkeeping.
    m("adaptive.decide_ns", "ns", "lower"),
    m("adaptive.record_outcome_ns", "ns", "lower"),
    // workloads: allocation, first touch and seeded input fill.
    m("workloads.setup_s", "s", "lower"),
    // Spans the benchmark records around its calls into the layers.
    m("span.direct_s", "s", "lower"),
    m("span.run_s", "s", "lower"),
    m("span.verify_s", "s", "lower"),
    m("span.overhead_frac", "ratio", "lower"),
    // Attribution of the traced TLS wall time.
    m("gap_s", "s", "lower"),
    m("share.run_entry", "ratio", "lower"),
    m("share.spec_load", "ratio", "lower"),
    m("share.spec_store", "ratio", "lower"),
    m("share.rank0_load", "ratio", "lower"),
    m("share.rank0_store", "ratio", "lower"),
    m("share.fork", "ratio", "lower"),
    m("share.join_commit", "ratio", "lower"),
    m("share.rollback", "ratio", "lower"),
    m("share.governor", "ratio", "lower"),
    m("share.unattributed", "ratio", "lower"),
];

/// The metric list a run with `trace` reports.
pub fn for_trace(trace: bool) -> &'static [Metric] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}
