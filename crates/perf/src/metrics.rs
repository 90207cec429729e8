//! Metric definitions, order statistics and the result line.

/// One reported metric: name, unit and which direction is better.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics of the untraced pass (host time, tracing off).
/// `error_rate` is reported here but is not a bounded metric in
/// `BENCHMARK.json`: it is 0 on a correct run, and the result line
/// carries it as `attempted`/`failed`.
pub const END_TO_END: [MetricDef; 6] = [
    def("trip_s_p50", "s", "lower"),
    def("trip_s_p75", "s", "lower"),
    def("events_per_s", "ev/s", "higher"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
    def("error_rate", "ratio", "lower"),
];

/// Per-layer metrics of the traced pass, grouped by crate.
pub const PER_LAYER: [MetricDef; 48] = [
    def("workloads.lower_ms", "ms", "lower"),
    def("workloads.ops", "count", "lower"),
    def("lint.check_ms", "ms", "lower"),
    def("core.build_ms", "ms", "lower"),
    def("core.self_ms", "ms", "lower"),
    def("core.trace_overhead_pct", "%", "lower"),
    def("iostack.launch_ms", "ms", "lower"),
    def("iostack.collect_ms", "ms", "lower"),
    def("iostack.events.rank", "count", "lower"),
    def("iostack.events.coordinator", "count", "lower"),
    def("iostack.makespan_ms", "ms", "lower"),
    def("des.simulate_ms", "ms", "lower"),
    def("des.ns_per_event", "ns", "lower"),
    def("des.events", "count", "lower"),
    def("des.rss_mb", "MB", "lower"),
    def("des.windows", "count", "lower"),
    def("des.events_per_window", "count", "higher"),
    def("des.null_window_share", "ratio", "lower"),
    def("des.parallel_efficiency", "ratio", "higher"),
    def("des.stall_share", "ratio", "lower"),
    def("des.barrier_share", "ratio", "lower"),
    def("des.ceiling_inf_lookahead", "x", "higher"),
    def("pfs.events.compute_fabric", "count", "lower"),
    def("pfs.events.storage_fabric", "count", "lower"),
    def("pfs.events.mds", "count", "lower"),
    def("pfs.events.oss", "count", "lower"),
    def("pfs.events.ionode", "count", "lower"),
    def("pfs.mds_ops", "count", "lower"),
    def("objstore.events.gateway", "count", "lower"),
    def("objstore.events.shard", "count", "lower"),
    def("objstore.events.node", "count", "lower"),
    def("objstore.gateway_wait_p99_us", "us", "lower"),
    def("resil.events.repl_fabric", "count", "lower"),
    def("resil.failures", "count", "lower"),
    def("resil.acked_mb", "MB", "higher"),
    def("resil.lost_mb", "MB", "lower"),
    def("reqtrace.drain_ms", "ms", "lower"),
    def("reqtrace.assemble_ms", "ms", "lower"),
    def("reqtrace.write_ms", "ms", "lower"),
    def("reqtrace.summarize_ms", "ms", "lower"),
    def("reqtrace.rss_mb", "MB", "lower"),
    def("reqtrace.marks", "count", "lower"),
    def("reqtrace.requests", "count", "lower"),
    def("reqtrace.jsonl_mb", "MB", "lower"),
    def("reqtrace.p99_us", "us", "lower"),
    def("trace.profile_ms", "ms", "lower"),
    def("trace.dxt_ms", "ms", "lower"),
    def("trace.records", "count", "lower"),
];

/// The end-to-end metrics that are bounded in `BENCHMARK.json`: every
/// one but `error_rate`.
pub fn bounded_end_to_end() -> Vec<MetricDef> {
    END_TO_END
        .iter()
        .copied()
        .filter(|d| d.name != "error_rate")
        .collect()
}

/// The definition of a metric by name, from either table.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolating linearly
/// between order statistics; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A JSON number for `v` with every digit Rust's shortest round-trip
/// formatting gives (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// The one-line JSON result: `correct`, `attempted`, `failed`, and each
/// metric of `defs` with its unit (0 where `values` lacks it).
pub fn result_line(
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &[(String, f64)],
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values
                .iter()
                .find(|(n, _)| n == d.name)
                .map_or(0.0, |(_, v)| *v);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.75), 3.25);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_fills_missing_metrics_with_zero() {
        let line = result_line(3, 1, &END_TO_END[..2], &[("trip_s_p50".into(), 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": {\
             \"trip_s_p50\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"trip_s_p75\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}
