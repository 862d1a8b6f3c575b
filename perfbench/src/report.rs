//! Metric names, units and the result line the benchmark prints.

use std::fmt::Write as _;

/// End-to-end metrics of an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("host_ms_per_sim_s", "ms/s"),
    ("slice_p50_ms", "ms"),
    ("slice_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("m2p_p99_ms", "ms"),
    ("goodput_hz", "Hz"),
];

/// Per-layer metrics of a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("edge.cloud.self_ms_per_sim_s", "ms/s"),
    ("edge.cloud.ns_per_event", "ns"),
    ("edge.cloud.events_per_sim_s", "1/s"),
    ("edge.cloud.share", "ratio"),
    ("edge.cloud.fanout_updates_per_sim_s", "1/s"),
    ("edge.cloud.fanout_deferred_ratio", "ratio"),
    ("edge.cloud.admit_ratio", "ratio"),
    ("edge.client.self_ms_per_sim_s", "ms/s"),
    ("edge.client.ns_per_event", "ns"),
    ("edge.client.events_per_sim_s", "1/s"),
    ("edge.client.share", "ratio"),
    ("edge.edge_server.self_ms_per_sim_s", "ms/s"),
    ("edge.edge_server.ns_per_event", "ns"),
    ("edge.edge_server.events_per_sim_s", "1/s"),
    ("edge.edge_server.share", "ratio"),
    ("edge.devices.self_ms_per_sim_s", "ms/s"),
    ("edge.devices.ns_per_event", "ns"),
    ("edge.devices.events_per_sim_s", "1/s"),
    ("edge.devices.share", "ratio"),
    ("sync.deadreckon.suppression_ratio", "ratio"),
    ("edge.pool.self_ms_per_sim_s", "ms/s"),
    ("edge.pool.events_per_sim_s", "1/s"),
    ("edge.pool.share", "ratio"),
    ("netsim.population.events", "count"),
    ("netsim.self_ms_per_sim_s", "ms/s"),
    ("netsim.engine_ns_per_event", "ns"),
    ("netsim.engine_share", "ratio"),
    ("netsim.events_per_sim_s", "1/s"),
    ("netsim.ops_pool.hit_ratio", "ratio"),
    ("netsim.env_slab.high_water", "count"),
    ("netsim.delivery_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The unit `name` is reported in, from either list.
///
/// # Panics
///
/// Panics on a name in neither list.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
        .unwrap_or_else(|| panic!("unlisted metric {name}"))
}

/// Whether `name` is made only of `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The result line: one JSON object, metrics in the given order.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", unit_of(name))
            .expect("write to string");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_units() {
        let line = result_json(true, 3, 0, &[("setup_s", 0.25), ("goodput_hz", 12.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"goodput_hz\": {\"value\": 12.0, \"unit\": \"Hz\"}}}"
        );
    }

    #[test]
    fn names_are_validated() {
        assert!(valid_name("edge.cloud.ns_per_event"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
    }
}
