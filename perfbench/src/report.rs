//! Metric names, units and the layer → end-to-end map; the result line;
//! the attribution table.

use crate::measure::{EndToEnd, Traced};

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which end-to-end metric, on which workload, this one should move
    /// (per-layer metrics); what a user sees (end-to-end metrics).
    pub meaning: &'static str,
}

const fn m(name: &'static str, unit: &'static str, meaning: &'static str) -> Metric {
    Metric {
        name,
        unit,
        meaning,
    }
}

/// End-to-end metrics, measured with tracing off. Times are host times
/// scaled to nominal host speed by the reference kernel (`reference.rs`);
/// the unscaled figures and the median and 90th percentile interval
/// times are printed on standard error but are not among them (see
/// README.md).
pub const END_TO_END: [Metric; 4] = [
    m(
        "node_rounds_per_s",
        "1/s",
        "simulated node-rounds per nominal-speed second inside run_until",
    ),
    m(
        "events_per_s",
        "1/s",
        "engine events per nominal-speed second inside run_until",
    ),
    m(
        "setup_s",
        "s",
        "median over batches of the mean world build (scenario, schedule, verify), nominal-speed s",
    ),
    m(
        "peak_heap_mb",
        "MB",
        "peak live heap bytes through the first world (set-up and run)",
    ),
];

/// Per-layer metrics, measured in the traced run. They have no bound,
/// so a count may be 0 where the workload bypasses its layer (no
/// episodes without an adversary, no duplicates on a faithful network),
/// and the failure share `gamma_miss_ratio` is listed here.
pub const PER_LAYER: [Metric; 24] = [
    m(
        "sim.push_pop_ns",
        "ns",
        "events_per_s on wide256 and mobile16",
    ),
    m(
        "sim.cancel_ns",
        "ns",
        "recovery32; no change predicted on wide256",
    ),
    m(
        "sim.pending_events",
        "count",
        "explains depth effects on mobile16",
    ),
    m("sim.events_per_node_round", "count", "count"),
    m(
        "core.select_ns",
        "ns",
        "node_rounds_per_s on wide256; no change predicted on mobile16",
    ),
    m("core.pong_ns", "ns", "node_rounds_per_s on wide256"),
    m("core.round_us", "us", "node_rounds_per_s on wide256"),
    m(
        "core.responders_per_round",
        "count",
        "context for recovery32",
    ),
    m("core.timeouts_per_round", "count", "context for recovery32"),
    m(
        "net.send_ns",
        "ns",
        "events_per_s on recovery32; no change predicted on wide256",
    ),
    m("net.delivered_ratio", "ratio", "count"),
    m("net.dup_ratio", "ratio", "count"),
    m("net.spiked", "count", "count"),
    m("clock.alarm_ns", "ns", "events_per_s on recovery32"),
    m("clock.adjustments", "count", "count"),
    m(
        "adversary.good_at_ns",
        "ns",
        "node_rounds_per_s on mobile16",
    ),
    m("adversary.verify_ms", "ms", "setup_s on mobile16"),
    m("adversary.episodes", "count", "count"),
    m("driver.apply_ns", "ns", "small share everywhere"),
    m(
        "runtime.interval_self_ms",
        "ms",
        "traced run: interval span minus observer children",
    ),
    m(
        "runtime.observer_us_per_interval",
        "us",
        "traced run: observer callbacks per interval",
    ),
    m(
        "runtime.trace_ratio",
        "ratio",
        "traced over untraced interval time, over >= 2 pass pairs",
    ),
    m(
        "runtime.attributed_pct",
        "%",
        "share of interval time the attribution rows explain",
    ),
    m(
        "gamma_miss_ratio",
        "ratio",
        "intervals past Theorem 5's gamma; 0 on mobile16 and wide256",
    ),
];

/// Values in the order of [`END_TO_END`].
pub fn end_to_end_values(e: &EndToEnd) -> Vec<f64> {
    vec![
        e.node_rounds_per_s,
        e.events_per_s,
        e.setup_s,
        e.peak_heap_mb,
    ]
}

/// Values in the order of [`PER_LAYER`].
pub fn per_layer_values(t: &Traced) -> Vec<f64> {
    let fp = &t.traced.fingerprint;
    let l = &t.layers;
    let rounds = t.counts.rounds.max(1) as f64;
    let sends = (fp.delivered + fp.dropped).max(1) as f64;
    let (_, explained_ns, interval_ns) = attribution(t);
    vec![
        l.push_pop_ns,
        l.cancel_ns,
        t.inputs.depth as f64,
        fp.events as f64 / fp.node_rounds.max(1) as f64,
        l.select_ns,
        l.pong_ns,
        l.round_us,
        t.counts.responders as f64 / rounds,
        t.counts.timeouts as f64 / rounds,
        l.send_ns,
        fp.delivered as f64 / sends,
        fp.duplicated as f64 / fp.delivered.max(1) as f64,
        fp.spiked as f64,
        l.alarm_ns,
        t.counts.adjustments as f64,
        l.good_at_ns,
        l.verify_ms,
        fp.episodes as f64,
        l.apply_ns,
        t.interval_self_ms,
        t.observer_us_per_interval,
        t.traced_secs / t.plain_secs,
        explained_ns / interval_ns * 100.0,
        t.gamma_misses as f64 / t.attempted.max(1) as f64,
    ]
}

/// The last line of standard output.
///
/// # Errors
///
/// A metric that is not a finite number.
///
/// # Panics
///
/// Panics unless there is exactly one value per metric.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
    values: &[f64],
) -> Result<String, String> {
    assert_eq!(metrics.len(), values.len(), "one value per metric");
    let mut fields = Vec::with_capacity(metrics.len());
    for (m, v) in metrics.iter().zip(values) {
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", m.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

/// One row of the attribution table.
#[derive(Debug, Clone, Copy)]
pub struct Row {
    /// Layer metric the row prices.
    pub metric: &'static str,
    /// Cost of one call, ns.
    pub ns_per_call: f64,
    /// Calls per interval, from the traced world's counts.
    pub calls: f64,
}

/// Layer ns/call × the workload's calls per interval, against the
/// untraced interval host time. Returns (rows, explained ns, mean
/// interval ns).
///
/// Call counts: queue operations = events; handled messages (pongs) =
/// delivered + duplicated; sends = delivered + dropped; selections and
/// `apply_outputs` batches = rounds; alarm inversions = 2 per round +
/// reschedules; `good_at` = adjustments + n per periodic world sample;
/// cancels = reschedules (slewed adjustments, drift changes, restarts and
/// corruptions each re-arm about one pending alarm). The rows may overlap
/// (a handled ping is priced as a pong), so they can explain more than
/// the whole interval.
pub fn attribution(t: &Traced) -> (Vec<Row>, f64, f64) {
    let fp = &t.traced.fingerprint;
    let l = &t.layers;
    let w = t.inputs.workload;
    let intervals = t.traced.interval_ns.len().max(1) as f64;
    let per = |count: f64| count / intervals;
    let rounds = per(fp.node_rounds as f64);
    let slewed = match w.discipline() {
        byzclock_runtime::Discipline::Slew { .. } => t.counts.adjustments as f64,
        byzclock_runtime::Discipline::Step => 0.0,
    };
    let reschedules = per(slewed + t.counts.transitions as f64) + w.drift_changes_per_interval();
    let rows = vec![
        Row {
            metric: "sim.push_pop_ns",
            ns_per_call: l.push_pop_ns,
            calls: per(fp.events as f64),
        },
        Row {
            metric: "sim.cancel_ns",
            ns_per_call: l.cancel_ns,
            calls: reschedules,
        },
        Row {
            metric: "core.pong_ns",
            ns_per_call: l.pong_ns,
            calls: per((fp.delivered + fp.duplicated) as f64),
        },
        Row {
            metric: "core.select_ns",
            ns_per_call: l.select_ns,
            calls: rounds,
        },
        Row {
            metric: "net.send_ns",
            ns_per_call: l.send_ns,
            calls: per((fp.delivered + fp.dropped) as f64),
        },
        Row {
            metric: "clock.alarm_ns",
            ns_per_call: l.alarm_ns,
            calls: 2.0 * rounds + reschedules,
        },
        Row {
            metric: "adversary.good_at_ns",
            ns_per_call: l.good_at_ns,
            calls: per(t.counts.adjustments as f64 + (t.counts.samples * t.n as u64) as f64),
        },
        Row {
            metric: "driver.apply_ns",
            ns_per_call: l.apply_ns,
            calls: rounds,
        },
    ];
    let interval_ns = t.plain_interval_ns();
    let explained: f64 = rows.iter().map(|r| r.ns_per_call * r.calls).sum();
    (rows, explained, interval_ns)
}

/// The attribution table as text.
pub fn attribution_table(t: &Traced) -> String {
    let (rows, explained, interval_ns) = attribution(t);
    let remainder = interval_ns - explained;
    let mut s = format!(
        "attribution on {} (untraced interval = {:.1} us):\n  {:<22} {:>10} {:>12} {:>12} {:>7}\n",
        t.inputs.workload.name(),
        interval_ns / 1e3,
        "layer metric",
        "ns/call",
        "calls/intvl",
        "us/intvl",
        "share"
    );
    for r in &rows {
        let ns = r.ns_per_call * r.calls;
        s += &format!(
            "  {:<22} {:>10.1} {:>12.1} {:>12.1} {:>6.1}%\n",
            r.metric,
            r.ns_per_call,
            r.calls,
            ns / 1e3,
            ns / interval_ns * 100.0
        );
    }
    s += &format!(
        "  {:<22} {:>10} {:>12} {:>12.1} {:>6.1}%\n",
        "unattributed",
        "",
        "",
        remainder / 1e3,
        remainder / interval_ns * 100.0
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_match_the_contract_and_are_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for m in &all {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit {}",
                m.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names repeat");
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                json.contains(&format!(
                    "\"name\": \"{}\", \"unit\": \"{}\"",
                    m.name, m.unit
                )),
                "BENCHMARK.json lacks {} [{}]",
                m.name,
                m.unit
            );
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn result_line_is_one_json_object_and_rejects_nan() {
        let line = result_line(true, 3, 0, &END_TO_END[..1], &[1.5]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"node_rounds_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}}"
        );
        assert!(result_line(true, 1, 0, &END_TO_END[..1], &[f64::NAN]).is_err());
    }
}
