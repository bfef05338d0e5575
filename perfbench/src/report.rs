//! Metric names and units (the same lists `BENCHMARK.json` declares), the
//! collection a run fills, and the JSON the run prints.

use std::fmt::Write;

use crate::stats::Summary;

/// `(name, unit)` of every end-to-end metric, printed by `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_per_gcycle", "1/Gcycle"),
    ("flops_per_cycle", "FLOP/cycle"),
    ("latency_p50_kcycles", "kcycle"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, printed by `--trace 1`.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("isa.fma_peak_gflops_f32", "GFLOP/s"),
    ("isa.fma_peak_gflops_f64", "GFLOP/s"),
    ("microkernel.gflops_f32", "GFLOP/s"),
    ("microkernel.gflops_f64", "GFLOP/s"),
    ("microkernel.peak_share_f32", "ratio"),
    ("microkernel.scalar_gflops_f32", "GFLOP/s"),
    ("pack.a_gbps", "GB/s"),
    ("pack.b_gbps", "GB/s"),
    ("pack.b_gbps_stream", "GB/s"),
    ("pack.time_share", "ratio"),
    ("gemm.naive_gflops_n256", "GFLOP/s"),
    ("gemm.blocked_gflops_n768", "GFLOP/s"),
    ("gemm.blocked_gflops_n1024", "GFLOP/s"),
    ("gemm.blocked_gflops_n1536", "GFLOP/s"),
    ("gemm.blocked_gflops_n2048", "GFLOP/s"),
    ("gemm.blocked_gflops_n2048_ld2056", "GFLOP/s"),
    ("gemm.blocked_gflops_f64_n1024", "GFLOP/s"),
    ("gemm.skewed_gflops_3136x64x576", "GFLOP/s"),
    ("gemm.sync_share", "ratio"),
    ("gemm.kernel_share", "ratio"),
    ("gemm.packed_bytes_per_flop", "B/FLOP"),
    ("strassen.ratio_vs_blocked_n1024", "ratio"),
    ("strassen.ratio_vs_blocked_n2048", "ratio"),
    ("zorder.ratio_vs_blocked_n1024", "ratio"),
    ("zorder.ratio_vs_blocked_n2048", "ratio"),
    ("syrk.gflops_1024x512", "GFLOP/s"),
    ("gemv.gbps_n2048", "GB/s"),
    ("pool.dispatch_us", "us"),
    ("pool.pooled_vs_serial_ratio_n128", "ratio"),
    ("pool.gang_refusal_rate", "ratio"),
    ("pool.workers_respawned", "count"),
    ("ml.predict_ns_per_row", "ns"),
    ("select.sweep_us", "us"),
    ("select.sweep_ns_per_point", "ns"),
    ("select.grid_points", "count"),
    ("select.eval_share", "ratio"),
    ("select.threads_mean", "count"),
    ("select.nonblocked_share", "ratio"),
    ("select.sim_speedup_mean", "ratio"),
    ("cache.hit_ns", "ns"),
    ("cache.miss_insert_ns", "ns"),
    ("cache.hit_rate", "ratio"),
    ("cache.evictions", "count"),
    ("service.overhead_us", "us"),
    ("service.overhead_share", "ratio"),
    ("service.pinned_overhead_us", "us"),
    ("service.validate_ns", "ns"),
    ("service.plan_downgrades", "count"),
    ("service.degraded_retries", "count"),
    ("online.observe_ns", "ns"),
    ("scheduler.overhead_us", "us"),
    ("scheduler.fused_share", "ratio"),
    ("scheduler.waves_per_op", "ratio"),
    ("scheduler.admission_waits", "count"),
    ("scheduler.max_queue_depth", "count"),
    ("scheduler.shed_expired", "count"),
    ("scheduler.makespan_ratio", "ratio"),
    ("install.gather_s", "s"),
    ("install.preprocess_s", "s"),
    ("install.train_s", "s"),
    ("machine.sim_time_ns", "ns"),
    ("sampling.halton_ns_per_shape", "ns"),
    ("trace.overhead_share", "ratio"),
    ("failed_share", "ratio"),
    ("throughput_ops_s", "1/s"),
    ("gflops", "GFLOP/s"),
    ("latency_p50_us", "us"),
    ("latency_p95_us", "us"),
    ("host.clock_ghz", "GHz"),
];

/// Where a number comes from: measured on this host, or computed by the
/// `adsala_machine` simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Host,
    Sim,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub source: Source,
    pub summary: Summary,
    /// What the reader needs beside the number (a ratio's base, a size).
    pub note: &'static str,
}

/// The metrics a run has measured so far, in the order it measured them.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn host(&mut self, name: &'static str, summary: Summary) {
        self.noted(name, summary, "");
    }

    pub fn noted(&mut self, name: &'static str, summary: Summary, note: &'static str) {
        self.0.push(Metric { name, source: Source::Host, summary, note });
    }

    pub fn sim(&mut self, name: &'static str, summary: Summary, note: &'static str) {
        self.0.push(Metric { name, source: Source::Sim, summary, note });
    }

    /// The metrics in `order`, each exactly once, with its unit.
    ///
    /// # Panics
    /// Panics if a listed metric was not measured, was measured twice, or
    /// an unlisted one was: the lists above are the contract.
    fn in_order<'a>(
        &'a self,
        order: &[(&'static str, &'static str)],
    ) -> Vec<(&'a Metric, &'static str)> {
        assert_eq!(self.0.len(), order.len(), "measured {:?}", self.names());
        order
            .iter()
            .map(|&(name, unit)| {
                let mut found = self.0.iter().filter(|m| m.name == name);
                let metric = found.next().unwrap_or_else(|| panic!("{name} was not measured"));
                assert!(found.next().is_none(), "{name} was measured twice");
                (metric, unit)
            })
            .collect()
    }

    pub fn names(&self) -> Vec<&'static str> {
        self.0.iter().map(|m| m.name).collect()
    }
}

/// A finite number as JSON; a non-finite one (a ratio with an empty base)
/// as `null`.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// What identifies the host and the build a run came from.
pub struct Fingerprint {
    pub fields: Vec<(&'static str, String)>,
}

/// The detailed report: fingerprint, then every metric with its unit,
/// median, MAD, sample count, source label and note.
pub fn detailed_json(
    workload: &str,
    seed: u64,
    fingerprint: &Fingerprint,
    metrics: &Metrics,
    order: &[(&'static str, &'static str)],
) -> String {
    let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"fingerprint\":{{");
    for (i, (key, value)) in fingerprint.fields.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        write!(out, "{comma}\"{key}\":\"{}\"", value.replace(['"', '\\'], "'")).unwrap();
    }
    out.push_str("},\"metrics\":{");
    for (i, (m, unit)) in metrics.in_order(order).into_iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let source = match m.source {
            Source::Host => "host",
            Source::Sim => "sim",
        };
        write!(
            out,
            "{comma}\"{}\":{{\"value\":{},\"unit\":\"{unit}\",\"mad\":{},\"n\":{},\"source\":\"{source}\",\"note\":\"{}\"}}",
            m.name,
            number(m.summary.median),
            number(m.summary.mad),
            m.summary.n,
            m.note
        )
        .unwrap();
    }
    out.push_str("}}");
    out
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    order: &[(&'static str, &'static str)],
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, (m, unit)) in metrics.in_order(order).into_iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        // A ratio whose base was empty in this run has no value; the
        // driver wants a number, and 0 is what the ratio's numerator was.
        let value = if m.summary.median.is_finite() { m.summary.median } else { 0.0 };
        write!(out, "{comma}\"{}\":{{\"value\":{value},\"unit\":\"{unit}\"}}", m.name).unwrap();
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(all[..i].iter().all(|(n, _)| n != name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(name.chars().all(ok) && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    /// `BENCHMARK.json` must declare the same names and units, in the
    /// same sections, as the lists in this file.
    #[test]
    fn benchmark_json_declares_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let end = text[start..].find(']').expect("section closes") + start;
            &text[start..end]
        };
        for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let body = section(key);
            assert_eq!(body.matches("\"name\"").count(), list.len(), "{key}");
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_has_every_metric_once() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.host(name, Summary::single(1.5));
        }
        let line = result_json(true, 10, 0, &m, &END_TO_END);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":10,\"failed\":0,\"metrics\":{"));
        for (name, unit) in END_TO_END {
            let entry = format!("\"{name}\":{{\"value\":1.5,\"unit\":\"{unit}\"}}");
            assert_eq!(line.matches(&entry).count(), 1, "{entry}");
        }
    }

    #[test]
    #[should_panic(expected = "measured twice")]
    fn a_metric_measured_twice_is_refused() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END.iter().take(END_TO_END.len() - 1) {
            m.host(name, Summary::single(1.0));
        }
        m.host("setup_s", Summary::single(2.0));
        result_json(true, 1, 0, &m, &END_TO_END);
    }
}
