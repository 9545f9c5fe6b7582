//! Metric names, units and the result line the benchmark prints last.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_cycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). Every workload
/// prints all of them; a layer a workload does not exercise reads 0 (see
/// README.md for which workload moves which metric).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.absorb_s", "s"),
    ("net.sa_s", "s"),
    ("net.va_s", "s"),
    ("net.rc_s", "s"),
    ("net.negedge_s", "s"),
    ("net.bridge_s", "s"),
    ("traffic.tick_s", "s"),
    ("cpu.tick_s", "s"),
    ("net.seq_run_s", "s"),
    ("net.unaccounted_s", "s"),
    ("setup.flows_s", "s"),
    ("net.build_s", "s"),
    ("setup.other_s", "s"),
    ("core.teardown_s", "s"),
    ("net.busy_tile_frac", "ratio"),
    ("net.link_flits", "count"),
    ("net.arbitrations", "count"),
    ("net.crossbar_transits", "count"),
    ("net.grant_ratio", "ratio"),
    ("net.ns_per_tile_cycle", "ns"),
    ("net.ns_per_link_flit", "ns"),
    ("shard.compute_s", "s"),
    ("shard.wait_s", "s"),
    ("shard.ingest_s", "s"),
    ("shard.flush_s", "s"),
    ("shard.load_imbalance", "ratio"),
    ("shard.cut_links", "count"),
    ("dist.compute_s", "s"),
    ("dist.wait_s", "s"),
    ("dist.ingest_s", "s"),
    ("dist.flush_s", "s"),
    ("dist.coordinator_s", "s"),
    ("dist.wall_s", "s"),
    ("dist.sim_cycles_per_s", "1/s"),
    ("obs.event_trace_overhead_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.first_window_ratio", "ratio"),
    ("bench.accounting_ok", "bool"),
    ("host.steal_pct", "%"),
    ("host.loadavg_1m", "load"),
];

/// True if `name` is a valid metric name: it starts with a letter or a
/// digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let first_ok = chars.next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Metric values gathered by one run, keyed by name.
#[derive(Default, Debug)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`; non-finite values (a 0/0 ratio) read 0.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Renders the final result line: exactly the metrics of `schema`, in
/// order, each with its unit. A schema metric the run did not record is an
/// error in the benchmark, not in the simulator.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    schema: &[(&str, &str)],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(schema.len());
    for (name, unit) in schema {
        if !valid_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let value = metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not recorded"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// A JSON number with all the digits `f64` carries.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_emitted_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(*name), "duplicate metric name {name:?}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?} for {name}"
            );
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("net.sa_s"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("net sa"));
        assert!(!valid_name("net/sa"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&needle), "BENCHMARK.json lacks {needle}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_schema_metric_and_finite_numbers() {
        let mut m = Metrics::default();
        for (name, _) in END_TO_END {
            m.set(name, 1.5);
        }
        m.set("setup_s", f64::NAN);
        let line = result_line(true, 3, 0, &m, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert!(!line.contains("NaN"));
        let err = result_line(true, 1, 0, &Metrics::default(), END_TO_END);
        assert!(err.is_err());
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
