//! The supervising side: reads the measuring process's lines, counts
//! attempts and failures, and turns the samples into the reported metrics.

use std::collections::BTreeMap;

use crate::catalog;
use crate::stats::median;

/// Everything read from the measuring processes of one run.
#[derive(Debug, Default)]
pub struct Aggregate {
    /// TLS runs started.
    pub attempted: u64,
    /// TLS runs that mismatched, panicked or took their process down.
    pub failed: u64,
    /// A `begin` not yet followed by its `rep`.
    pending: bool,
    setup_ns: Vec<f64>,
    seq_ns: Vec<f64>,
    tls_ns: Vec<f64>,
    plain_total_ns: Vec<f64>,
    traced_total_ns: Vec<f64>,
    spans: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, Vec<f64>>,
    probes: BTreeMap<String, f64>,
    peak_rss_kib: u64,
    /// The process said `end`.
    pub finished: bool,
}

impl Aggregate {
    /// Take in one line of a measuring process's output.
    pub fn feed(&mut self, line: &str) {
        let words: Vec<&str> = line.split_whitespace().collect();
        let num = |i: usize| {
            words
                .get(i)
                .and_then(|w| w.parse::<f64>().ok())
                .unwrap_or(f64::NAN)
        };
        match words.first().copied() {
            Some("begin") => {
                self.attempted += 1;
                self.pending = true;
            }
            Some("setup") => self.setup_ns.push(num(1)),
            Some("rep") => {
                self.pending = false;
                if num(1) == 1.0 {
                    self.seq_ns.push(num(2));
                    self.tls_ns.push(num(3));
                } else {
                    self.failed += 1;
                }
            }
            Some("total") if num(1) == 1.0 => self.traced_total_ns.push(num(2)),
            Some("total") => self.plain_total_ns.push(num(2)),
            Some("span") if words.len() == 3 => self
                .spans
                .entry(words[1].to_string())
                .or_default()
                .push(num(2)),
            Some("count") if words.len() == 3 => self
                .counts
                .entry(words[1].to_string())
                .or_default()
                .push(num(2)),
            Some("probe") if words.len() == 3 => {
                self.probes.insert(words[1].to_string(), num(2));
            }
            Some("rss") => self.peak_rss_kib = self.peak_rss_kib.max(num(1) as u64),
            Some("end") => self.finished = true,
            _ => {}
        }
    }

    /// The measuring process ended abnormally: the run it was in (or, if
    /// none had started, the process itself) counts as one failure.
    pub fn crashed(&mut self) {
        if !self.pending {
            self.attempted += 1;
        }
        self.pending = false;
        self.failed += 1;
    }

    fn span_s(&self, name: &str) -> f64 {
        median(self.spans.get(name).cloned().unwrap_or_default()) * 1e-9
    }

    fn count(&self, name: &str) -> f64 {
        median(self.counts.get(name).cloned().unwrap_or_default())
    }

    fn probe(&self, name: &str) -> f64 {
        self.probes.get(name).copied().unwrap_or(f64::NAN)
    }

    /// End-to-end metrics of an untraced run.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let tls = median(self.tls_ns.clone()) * 1e-9;
        let seq = median(self.seq_ns.clone()) * 1e-9;
        BTreeMap::from([
            ("tls_wall_s", tls),
            ("seq_wall_s", seq),
            ("speedup", seq / tls),
            ("setup_s", median(self.setup_ns.clone()) * 1e-9),
            ("peak_rss_mb", self.peak_rss_kib as f64 / 1024.0),
        ])
    }

    /// Per-layer metrics of a traced run: probes, counts, spans and the
    /// attribution of the traced TLS wall time to each layer.
    pub fn per_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for metric in catalog::PER_LAYER {
            if self.probes.contains_key(metric.name) {
                out.insert(metric.name, self.probe(metric.name));
            } else if self.counts.contains_key(metric.name) {
                out.insert(metric.name, self.count(metric.name));
            }
        }
        let tls_s = self.span_s("run");
        let seq_s = self.span_s("direct");
        out.insert("runtime.new_s", self.span_s("new"));
        out.insert("workloads.setup_s", self.span_s("setup"));
        out.insert("span.direct_s", seq_s);
        out.insert("span.run_s", tls_s);
        out.insert("span.verify_s", self.span_s("verify"));
        out.insert(
            "span.overhead_frac",
            median(self.traced_total_ns.clone()) / median(self.plain_total_ns.clone()) - 1.0,
        );
        out.insert("gap_s", tls_s - seq_s);

        // share = ns/op × the traced run's op count ÷ the traced TLS wall.
        let tls_ns = tls_s * 1e9;
        let c = |name: &str| self.count(name);
        let p = |name: &str| self.probe(name);
        let joins = c("runtime.commits") + c("rollbacks");
        let shares = [
            ("share.run_entry", p("runtime.run_empty_ns")),
            (
                "share.spec_load",
                c("runtime.spec_loads") * p("runtime.spec_load_hit_ns"),
            ),
            (
                "share.spec_store",
                c("runtime.spec_stores") * p("runtime.spec_store_ns"),
            ),
            (
                "share.rank0_load",
                c("rank0_loads") * p("runtime.rank0_load_ns"),
            ),
            (
                "share.rank0_store",
                c("rank0_stores") * p("runtime.rank0_store_ns"),
            ),
            (
                "share.fork",
                c("forks") * p("runtime.fork_start_ns")
                    + c("runtime.failed_forks") * p("runtime.fork_denied_ns"),
            ),
            (
                "share.join_commit",
                c("runtime.commits") * p("runtime.join_commit_ns"),
            ),
            ("share.rollback", c("rollbacks") * p("runtime.rollback_ns")),
            (
                "share.governor",
                (c("forks") + c("runtime.failed_forks") + c("throttled_forks"))
                    * p("adaptive.decide_ns")
                    + joins * p("adaptive.record_outcome_ns"),
            ),
        ];
        let mut attributed = 0.0;
        for (name, ns) in shares {
            attributed += ns / tls_ns;
            out.insert(name, ns / tls_ns);
        }
        out.insert("share.unattributed", 1.0 - attributed);
        out
    }

    /// Repetitions whose checksums matched.
    pub fn samples(&self) -> usize {
        self.tls_ns.len()
    }
}

/// Render the result object: `correct`, `attempted`, `failed` and every
/// metric of `catalog` with its unit.  A metric that is missing or not
/// finite is reported as 0 and makes the run incorrect.
pub fn result_json(
    attempted: u64,
    failed: u64,
    values: &BTreeMap<&'static str, f64>,
    metrics: &[catalog::Metric],
) -> String {
    let mut correct = attempted > 0 && failed == 0;
    let mut items = Vec::with_capacity(metrics.len());
    for metric in metrics {
        let value = match values.get(metric.name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                correct = false;
                0.0
            }
        };
        items.push(format!(
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        items.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_and_crashes_count_as_failed_attempts() {
        let mut agg = Aggregate::default();
        for line in [
            "begin",
            "rep 1 10 20 40",
            "begin",
            "rep 0 10 20 40",
            "begin",
        ] {
            agg.feed(line);
        }
        // The process died inside the third run.
        agg.crashed();
        assert_eq!((agg.attempted, agg.failed), (3, 2));
        // A process that dies between runs counts as one more failure.
        agg.crashed();
        assert_eq!((agg.attempted, agg.failed), (4, 3));
        assert_eq!(agg.samples(), 1);
        let e2e = agg.end_to_end();
        assert_eq!(e2e["speedup"], 0.5);
    }

    #[test]
    fn missing_or_non_finite_metrics_make_the_result_incorrect() {
        let values = BTreeMap::from([("tls_wall_s", f64::NAN)]);
        let json = result_json(1, 0, &values, catalog::END_TO_END);
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0"));
        assert!(json.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
    }
}
