//! Per-layer metrics of one traced round, read after the timed window
//! from what the daemon serves. Module names are the layer names.

use std::collections::BTreeMap;

use dcserver::client::Client;

use crate::daemon::request;
use crate::scrape::{kv, max_kv, span_durations, sum_kv, Metrics};
use crate::stats::median;
use crate::Res;

/// Every per-layer metric, in report order, with its unit. A layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.gen_late_p99_ms", "ms"),
    ("client.send_block_ms", "ms"),
    ("frame.encode_ns_per_row", "ns"),
    ("frame.decode_ns_per_row", "ns"),
    ("frame.bytes_per_row", "B"),
    ("net.parse_ns_per_row", "ns"),
    ("net.encode_ns_per_row", "ns"),
    ("net.bytes_per_row", "B"),
    ("receptor.appends", "count"),
    ("receptor.rows_per_append", "rows"),
    ("receptor.append_p99_us", "us"),
    ("receptor.backpressure_waits", "count"),
    ("basket.dwell_p50_us", "us"),
    ("basket.dwell_p99_us", "us"),
    ("basket.rows_peak", "rows"),
    ("basket.bytes_peak", "B"),
    ("basket.compactions", "count"),
    ("basket.append_ns_per_row", "ns"),
    ("basket.snapshot_us", "us"),
    ("fire.count", "count"),
    ("fire.rows_in_per_fire", "rows"),
    ("fire.p50_us", "us"),
    ("fire.p99_us", "us"),
    ("fire.lock_us", "us"),
    ("fire.snapshot_us", "us"),
    ("fire.execute_us", "us"),
    ("fire.apply_us", "us"),
    ("fire.tuple_latency_p99_us", "us"),
    ("plan.delta_rows", "rows"),
    ("plan.full_reexecutes", "count"),
    ("plan.delta_ratio", "ratio"),
    ("plan.fallbacks", "count"),
    ("plan.arrangement_bytes", "B"),
    ("plan.rows_out_per_fire", "rows"),
    ("emitter.write_p99_us", "us"),
    ("emitter.coalesced", "count"),
    ("emitter.rows_out", "rows"),
    ("emitter.bytes_out", "B"),
    ("wal.fsyncs", "count"),
    ("wal.fsync_p99_us", "us"),
    ("wal.append_p99_us", "us"),
    ("wal.bytes_per_row", "B"),
    ("router.forward_saturation", "count"),
    ("router.forward_p99_us", "us"),
    ("router.shard_skew", "ratio"),
    ("partition.split_ns_per_row", "ns"),
    ("repl.lag_rows_max", "rows"),
    ("repl.catchup_s", "s"),
    ("repl.failovers", "count"),
    ("trace.overhead_pct", "%"),
];

/// Metric values of one traced round, by name.
pub type Layers = BTreeMap<&'static str, f64>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p99(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v[((v.len() as f64 * 0.99).ceil() as usize).clamp(1, v.len()) - 1]
}

/// What the workload tells the scrape about itself.
pub struct Scope<'a> {
    pub stream: &'a str,
    pub queries: &'a [&'a str],
    /// Bytes per resident row when the basket is empty at the end (all
    /// columns are 8-byte ints, plus the arrival timestamp).
    pub row_bytes: f64,
}

/// Read `METRICS`, `STATS`, `TRACE SPANS` and `EXPLAIN QUERY` and derive
/// the receptor, basket, fire, plan, emitter, wal and router metrics.
pub fn scrape(c: &mut Client, scope: &Scope, out: &mut Layers) -> Res<()> {
    let m = Metrics::parse(&request(c, "METRICS")?)?;
    let stats = request(c, "STATS")?;
    let spans = request(c, "TRACE SPANS")?;
    let stream = format!("stream=\"{}\"", scope.stream);
    let s = [stream.as_str()];

    let append = m.hist("dc_receptor_append_micros", &s);
    out.insert("receptor.appends", append.count);
    out.insert(
        "receptor.rows_per_append",
        ratio(m.sum("dc_ingest_rows_total", &s), append.count),
    );
    out.insert("receptor.append_p99_us", append.quantile(0.99));
    out.insert(
        "receptor.backpressure_waits",
        m.sum("dc_backpressure_waits_total", &s),
    );

    let basket = format!("basket {} ", scope.stream);
    let dwell = m.hist("dc_basket_dwell_micros", &s);
    out.insert("basket.dwell_p50_us", dwell.quantile(0.50));
    out.insert("basket.dwell_p99_us", dwell.quantile(0.99));
    let peak = max_kv(&stats, &basket, "high_water");
    let resident = m.sum("dc_basket_rows", &s);
    let row_bytes = if resident > 0.0 {
        m.sum("dc_basket_bytes", &s) / resident
    } else {
        scope.row_bytes
    };
    out.insert("basket.rows_peak", peak);
    out.insert("basket.bytes_peak", peak * row_bytes);
    out.insert("basket.compactions", m.sum("dc_compactions_total", &s));

    let fire = m.hist("dc_fire_micros", &[]);
    let firings = sum_kv(&stats, "query ", "firings");
    out.insert("fire.count", fire.count);
    out.insert(
        "fire.rows_in_per_fire",
        ratio(sum_kv(&stats, "query ", "rows_scanned"), firings),
    );
    out.insert("fire.p50_us", fire.quantile(0.50));
    out.insert("fire.p99_us", fire.quantile(0.99));
    for (name, phase) in [
        ("fire.lock_us", "lock"),
        ("fire.snapshot_us", "snapshot"),
        ("fire.execute_us", "execute"),
        ("fire.apply_us", "apply"),
    ] {
        let label = format!("phase=\"{phase}\"");
        out.insert(name, m.hist("dc_fire_phase_micros", &[label.as_str()]).sum);
    }
    out.insert(
        "fire.tuple_latency_p99_us",
        m.hist("dc_tuple_latency_micros", &[]).quantile(0.99),
    );

    // delta firings: firings of delta-compiled queries that did not
    // fall back to a full re-execution
    let mut delta_firings = 0.0;
    for q in scope.queries {
        let plan = request(c, &format!("EXPLAIN QUERY {q}"))?;
        let compiled_delta = plan
            .iter()
            .any(|l| l.starts_with("plan ") && kv(l, "delta").unwrap_or(0.0) > 0.0);
        if compiled_delta {
            let line = format!("query {q} ");
            delta_firings +=
                sum_kv(&stats, &line, "firings") - sum_kv(&stats, &line, "full_reexecutes");
        }
    }
    out.insert("plan.delta_rows", sum_kv(&stats, "query ", "delta_rows"));
    out.insert(
        "plan.full_reexecutes",
        sum_kv(&stats, "query ", "full_reexecutes"),
    );
    out.insert("plan.delta_ratio", ratio(delta_firings, firings));
    out.insert("plan.fallbacks", m.sum("dc_delta_fallback_total", &[]));
    out.insert(
        "plan.arrangement_bytes",
        sum_kv(&stats, "query ", "arrangement_bytes"),
    );
    out.insert(
        "plan.rows_out_per_fire",
        ratio(sum_kv(&stats, "query ", "rows_out"), firings),
    );

    out.insert(
        "emitter.write_p99_us",
        m.hist("dc_emitter_write_micros", &[]).quantile(0.99),
    );
    out.insert(
        "emitter.coalesced",
        m.sum("dc_coalesced_batches_total", &[]),
    );
    out.insert(
        "emitter.rows_out",
        sum_kv(&stats, "query ", "delivered_tuples"),
    );

    let fsync = m.hist("dc_wal_fsync_micros", &s);
    let accepted = sum_kv(&stats, &format!("receptor {} ", scope.stream), "accepted");
    out.insert("wal.fsyncs", fsync.count);
    out.insert("wal.fsync_p99_us", fsync.quantile(0.99));
    out.insert(
        "wal.append_p99_us",
        p99(&span_durations(&spans, "wal_append")),
    );
    out.insert(
        "wal.bytes_per_row",
        ratio(sum_kv(&stats, &basket, "wal_bytes"), accepted),
    );

    out.insert(
        "router.forward_saturation",
        m.sum("dc_forward_saturation_total", &s),
    );
    out.insert(
        "router.forward_p99_us",
        p99(&span_durations(&spans, "forward")),
    );
    let shards = stats.iter().filter(|l| l.starts_with("shard ")).count() as f64;
    let mean_in = ratio(sum_kv(&stats, "shard ", "baskets_in"), shards);
    out.insert(
        "router.shard_skew",
        ratio(max_kv(&stats, "shard ", "baskets_in"), mean_in),
    );
    Ok(())
}

/// Median of each metric over the traced rounds.
pub fn median_over(rounds: &[Layers]) -> Layers {
    let mut out = Layers::new();
    for &(name, _) in PER_LAYER {
        let values: Vec<f64> = rounds.iter().filter_map(|l| l.get(name).copied()).collect();
        out.insert(
            name,
            if values.is_empty() {
                0.0
            } else {
                median(&values)
            },
        );
    }
    out
}
