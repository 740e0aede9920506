//! Every metric the benchmark reports: its unit, which way is better,
//! the layer it belongs to, and the end-to-end metric and workload it
//! should move. `--catalog` prints this table as JSON; `metrics.json` is
//! that output committed, and `BENCHMARK.json` lists the same names,
//! units and directions. Every run checks that both still agree with
//! this table.

use crate::stats::json_str;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    EndToEnd,
    PerLayer,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub layer: &'static str,
    pub moves: &'static str,
    pub kind: Kind,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, moves: &'static str) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        layer: "end_to_end",
        moves,
        kind: Kind::EndToEnd,
    }
}

const fn layer(
    layer: &'static str,
    name: &'static str,
    unit: &'static str,
    higher: bool,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better: higher,
        layer,
        moves,
        kind: Kind::PerLayer,
    }
}

const ALL_THROUGHPUT: &str = "throughput_per_s on every workload";
const CENSUS_TPUT: &str = "throughput_per_s on census";
const SCAN_TPUT: &str = "throughput_per_s on census and census_lossy";
const WIRE_TPUT: &str = "throughput_per_s on census, census_lossy and dnsroute";

pub const METRICS: &[Metric] = &[
    e2e("setup_s", "s", false, "median wall time to generate the workload's shard worlds"),
    e2e("oneshot_s", "s", false, "wall time of one fresh public one-shot sweep (generate, sweep, drop), as the mean of the middle half of a run's sweeps"),
    e2e("throughput_per_s", "1/s", true, "warm-sweep throughput: targets (census, census_lossy), traces (dnsroute) or campaign probes (campaign) per second of the mean of the middle half of a run's warm sweeps"),
    e2e("peak_rss_mb", "MB", false, "peak resident set (VmHWM) of the workload process"),
    layer("inetgen", "inetgen.generate_s", "s", false, "setup_s and oneshot_s on every workload"),
    layer("inetgen", "inetgen.reset_s", "s", false, CENSUS_TPUT),
    layer("inetgen", "inetgen.teardown_s", "s", false, "oneshot_s on every workload"),
    layer("inetgen", "inetgen.targets", "count", true, ALL_THROUGHPUT),
    layer("inetgen", "inetgen.planted_hosts", "count", true, ALL_THROUGHPUT),
    layer("scanner", "scanner.scan_s", "s", false, SCAN_TPUT),
    layer("scanner", "scanner.correlate_s", "s", false, CENSUS_TPUT),
    layer("scanner", "scanner.campaign_share", "share", false, "throughput_per_s on campaign"),
    layer("scanner", "scanner.probes", "count", false, ALL_THROUGHPUT),
    layer("scanner", "scanner.responses", "count", false, ALL_THROUGHPUT),
    layer("scanner", "scanner.retransmits", "count", false, "throughput_per_s on census_lossy"),
    layer("scanner", "scanner.answered_on_retry", "count", true, "throughput_per_s on census_lossy"),
    layer("scanner", "scanner.unmatched", "count", false, ALL_THROUGHPUT),
    layer("scanner", "scanner.late_answers_discarded", "count", false, "throughput_per_s on census_lossy"),
    layer("scanner", "scanner.capture_bytes", "count", false, "throughput_per_s on campaign"),
    layer("scanner", "scanner.campaign_probes", "count", false, "throughput_per_s on campaign"),
    layer("scanner", "scanner.sensor_rate_limited", "count", false, "throughput_per_s on campaign"),
    layer("analysis", "analysis.classify_s", "s", false, CENSUS_TPUT),
    layer("analysis", "analysis.residual_s", "s", false, ALL_THROUGHPUT),
    layer("analysis", "analysis.explained_share", "share", true, "trust in every per-layer attribution"),
    layer("analysis", "analysis.missed_under_loss", "count", false, "throughput_per_s on census_lossy"),
    layer("analysis", "analysis.trace_overhead_s", "s", false, "nothing: the traced minus the untraced sweep time"),
    layer("netsim", "netsim.events", "count", false, SCAN_TPUT),
    layer("netsim", "netsim.events_per_target", "count", false, SCAN_TPUT),
    layer("netsim", "netsim.udp_sent", "count", false, WIRE_TPUT),
    layer("netsim", "netsim.udp_delivered", "count", false, WIRE_TPUT),
    layer("netsim", "netsim.icmp_delivered", "count", false, "throughput_per_s on dnsroute"),
    layer("netsim", "netsim.timers_fired", "count", false, WIRE_TPUT),
    layer("netsim", "netsim.timers_coalesced", "count", true, WIRE_TPUT),
    layer("netsim", "netsim.wheel_scheduled", "count", false, WIRE_TPUT),
    layer("netsim", "netsim.heap_scheduled", "count", false, WIRE_TPUT),
    layer("netsim", "netsim.route_cache_hits", "count", true, WIRE_TPUT),
    layer("netsim", "netsim.route_cache_misses", "count", false, WIRE_TPUT),
    layer("netsim", "netsim.route_cache_hit_ratio", "share", true, WIRE_TPUT),
    layer("netsim", "netsim.dropped_no_such_host", "count", false, SCAN_TPUT),
    layer("netsim", "netsim.dropped_ttl", "count", false, "throughput_per_s on dnsroute"),
    layer("netsim", "netsim.dropped_fault", "count", false, "throughput_per_s on census_lossy"),
    layer("netsim", "netsim.dropped_corrupt", "count", false, "throughput_per_s on census_lossy"),
    layer("netsim", "netsim.duplicates_injected", "count", false, "throughput_per_s on census_lossy"),
    layer("netsim", "netsim.bytes_delivered", "count", false, WIRE_TPUT),
    layer("netsim", "netsim.route_resolve_cold_ns", "ns", false, WIRE_TPUT),
    layer("netsim", "netsim.route_resolve_warm_ns", "ns", false, WIRE_TPUT),
    layer("dnswire", "dnswire.decode_ns", "ns", false, ALL_THROUGHPUT),
    layer("dnswire", "dnswire.encode_ns", "ns", false, ALL_THROUGHPUT),
    layer("dnswire", "dnswire.response_bytes", "count", false, ALL_THROUGHPUT),
    layer("odns", "odns.resolver_queries", "count", false, CENSUS_TPUT),
    layer("odns", "odns.resolver_cache_answers", "count", true, CENSUS_TPUT),
    layer("odns", "odns.resolver_coalesced", "count", true, CENSUS_TPUT),
    layer("odns", "odns.resolver_upstream_queries", "count", false, CENSUS_TPUT),
    layer("odns", "odns.cache_hit_ratio", "share", true, CENSUS_TPUT),
    layer("odns", "odns.forwarder_relayed", "count", false, CENSUS_TPUT),
    layer("odns", "odns.transparent_relayed", "count", false, CENSUS_TPUT),
    layer("odns", "odns.transparent_ttl_exceeded", "count", false, "throughput_per_s on dnsroute"),
    layer("odns", "odns.auth_queries", "count", false, CENSUS_TPUT),
    layer("odns", "odns.auth_rate_limited", "count", false, CENSUS_TPUT),
    layer("dnsroute", "dnsroute.trace_share", "share", false, "throughput_per_s on dnsroute"),
    layer("dnsroute", "dnsroute.sanitize_share", "share", false, "throughput_per_s on dnsroute"),
    layer("dnsroute", "dnsroute.traces", "count", true, "throughput_per_s on dnsroute"),
    layer("dnsroute", "dnsroute.kept", "count", true, "throughput_per_s on dnsroute"),
    layer("dnsroute", "dnsroute.rejected", "count", false, "throughput_per_s on dnsroute"),
    layer("dnsroute", "dnsroute.icmp_per_trace", "count", false, "throughput_per_s on dnsroute"),
];

pub fn of_kind(kind: Kind) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.kind == kind)
}

pub fn find(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalog"))
}

/// The catalog as a JSON array, one object per metric.
pub fn to_json() -> String {
    let rows: Vec<String> = METRICS
        .iter()
        .map(|m| {
            format!(
                "  {{\"name\": {}, \"unit\": {}, \"better\": {}, \"layer\": {}, \"kind\": {}, \"moves\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(if m.higher_is_better { "higher" } else { "lower" }),
                json_str(m.layer),
                json_str(match m.kind {
                    Kind::EndToEnd => "end_to_end",
                    Kind::PerLayer => "per_layer",
                }),
                json_str(m.moves),
            )
        })
        .collect();
    format!("[\n{}\n]", rows.join(",\n"))
}

/// The committed catalog and `BENCHMARK.json` as they were built into
/// this binary.
const COMMITTED: &str = include_str!("../metrics.json");
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

/// Where the committed copies disagree with this table.
pub fn drift() -> Vec<String> {
    let mut problems = Vec::new();
    if COMMITTED.trim() != to_json() {
        problems.push("perfbench/metrics.json differs from --catalog".to_string());
    }
    let flat: String = BENCHMARK.chars().filter(|c| !c.is_whitespace()).collect();
    for (key, kind) in [
        ("end_to_end", Kind::EndToEnd),
        ("per_layer", Kind::PerLayer),
    ] {
        let listed = objects(&flat, key);
        let want: Vec<[String; 3]> = of_kind(kind)
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                [m.name.into(), m.unit.into(), better.into()]
            })
            .collect();
        let got: Vec<[String; 3]> = listed
            .iter()
            .map(|o| ["name", "unit", "better"].map(|k| field(o, k)))
            .collect();
        if got != want {
            problems.push(format!(
                "BENCHMARK.json {key} names, units or directions differ from --catalog"
            ));
        }
    }
    let workloads: Vec<String> = objects(&flat, "workloads")
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    let names: Vec<&str> = crate::workload::Workload::ALL.map(|w| w.name()).to_vec();
    if workloads != names {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?} differ from {names:?}"
        ));
    }
    problems
}

/// The flat objects of the array under `key` in whitespace-free JSON.
fn objects<'a>(flat: &'a str, key: &str) -> Vec<&'a str> {
    let Some(rest) = flat.split(&format!("\"{key}\":[")).nth(1) else {
        return Vec::new();
    };
    let body = rest.split(']').next().unwrap_or("");
    body.split('{').skip(1).collect()
}

/// A string field of a flat, whitespace-free JSON object.
fn field(object: &str, key: &str) -> String {
    object
        .split(&format!("\"{key}\":\""))
        .nth(1)
        .and_then(|r| r.split('"').next())
        .unwrap_or_default()
        .to_string()
}
