//! Readers for what the daemons serve on the control connection:
//! `METRICS` (Prometheus text), `STATS` and `REPL STATUS` (`key=value`
//! lines) and `TRACE SPANS` (per-batch span trees).

use std::collections::BTreeMap;

use dctrace::{parse_exposition, Sample};

use crate::Res;

/// Label filter: every listed `key="value"` pair must be present.
fn has_labels(sample: &Sample, filters: &[&str]) -> bool {
    let labels: Vec<&str> = sample.labels.split(',').collect();
    filters.iter().all(|f| labels.contains(f))
}

fn label<'a>(sample: &'a Sample, key: &str) -> Option<&'a str> {
    sample
        .labels
        .split(',')
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix("=\"")?.strip_suffix('"'))
}

/// A parsed `METRICS` exposition.
pub struct Metrics(Vec<Sample>);

/// A histogram merged over every matching series: per-bucket counts by
/// upper bound (µs), plus the exact sum and count.
#[derive(Debug, Default)]
pub struct Hist {
    buckets: BTreeMap<u64, u64>,
    pub sum: f64,
    pub count: f64,
}

impl Hist {
    /// Upper bound of the bucket holding quantile `q`, the estimate the
    /// daemons themselves report; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = (q * self.count).ceil().max(1.0) as u64;
        let mut seen = 0;
        let mut last = 0;
        for (&le, &c) in &self.buckets {
            if le != u64::MAX {
                last = le;
            }
            seen += c;
            if seen >= rank {
                return last as f64;
            }
        }
        last as f64
    }
}

impl Metrics {
    pub fn parse(lines: &[String]) -> Res<Metrics> {
        parse_exposition(lines)
            .map(Metrics)
            .map_err(|e| format!("METRICS: {e}"))
    }

    /// Sum of every series of `name` carrying the given labels.
    pub fn sum(&self, name: &str, filters: &[&str]) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name && has_labels(s, filters))
            .fold(0.0, |sum, s| sum + s.value)
    }

    /// The histogram `name`, merged bucket-wise over matching series.
    pub fn hist(&self, name: &str, filters: &[&str]) -> Hist {
        let mut h = Hist {
            sum: self.sum(&format!("{name}_sum"), filters),
            count: self.sum(&format!("{name}_count"), filters),
            ..Hist::default()
        };
        // cumulative `_bucket` series → per-bucket counts, per series
        let bucket = format!("{name}_bucket");
        let mut series: BTreeMap<String, Vec<(u64, f64)>> = BTreeMap::new();
        for s in self
            .0
            .iter()
            .filter(|s| s.name == bucket && has_labels(s, filters))
        {
            let le = match label(s, "le") {
                Some("+Inf") => u64::MAX,
                Some(v) => v.parse().unwrap_or(u64::MAX),
                None => continue,
            };
            let others: Vec<&str> = s
                .labels
                .split(',')
                .filter(|kv| !kv.starts_with("le="))
                .collect();
            series
                .entry(others.join(","))
                .or_default()
                .push((le, s.value));
        }
        for mut cum in series.into_values() {
            cum.sort_by_key(|&(le, _)| le);
            let mut prev = 0.0;
            for (le, c) in cum {
                *h.buckets.entry(le).or_default() += (c - prev).max(0.0) as u64;
                prev = c;
            }
        }
        h
    }
}

/// `key=value` from a whitespace-separated line.
pub fn kv(line: &str, key: &str) -> Option<f64> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Sum of `key` over the lines starting with `prefix`.
pub fn sum_kv(lines: &[String], prefix: &str, key: &str) -> f64 {
    lines
        .iter()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| kv(l, key))
        .fold(0.0, |a, b| a + b)
}

/// Largest `key` over the lines starting with `prefix`.
pub fn max_kv(lines: &[String], prefix: &str, key: &str) -> f64 {
    lines
        .iter()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| kv(l, key))
        .fold(0.0, f64::max)
}

/// Durations (µs) of every span of `hop` in a `TRACE SPANS` body.
pub fn span_durations(lines: &[String], hop: &str) -> Vec<f64> {
    let tag = format!("hop={hop}");
    lines
        .iter()
        .filter(|l| l.split_whitespace().any(|t| t == tag))
        .filter_map(|l| kv(l, "dur_micros"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(s: &str) -> Vec<String> {
        s.lines().map(str::to_string).collect()
    }

    #[test]
    fn merges_histograms_across_series() {
        let m = Metrics::parse(&lines(
            "# TYPE h histogram\n\
             h_bucket{q=\"a\",le=\"1\"} 1\n\
             h_bucket{q=\"a\",le=\"2\"} 3\n\
             h_bucket{q=\"a\",le=\"+Inf\"} 3\n\
             h_sum{q=\"a\"} 5\n\
             h_count{q=\"a\"} 3\n\
             h_bucket{q=\"b\",le=\"1\"} 0\n\
             h_bucket{q=\"b\",le=\"2\"} 0\n\
             h_bucket{q=\"b\",le=\"4\"} 1\n\
             h_bucket{q=\"b\",le=\"+Inf\"} 1\n\
             h_sum{q=\"b\"} 4\n\
             h_count{q=\"b\"} 1\n\
             c{q=\"a\",r=\"x\"} 2\n\
             c{q=\"b\",r=\"y\"} 5",
        ))
        .unwrap();
        let h = m.hist("h", &[]);
        assert_eq!((h.count, h.sum), (4.0, 9.0));
        assert_eq!(h.quantile(0.25), 1.0);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(0.99), 4.0);
        assert_eq!(m.hist("h", &["q=\"b\""]).quantile(0.5), 4.0);
        assert_eq!(m.sum("c", &[]), 7.0);
        assert_eq!(m.sum("c", &["r=\"y\""]), 5.0);
        assert_eq!(m.hist("missing", &[]).quantile(0.5), 0.0);
    }

    #[test]
    fn reads_key_values_and_spans() {
        let stats = lines(
            "shard 0 addr=x baskets_in=10 failovers=0\n\
             shard 1 addr=y baskets_in=30 failovers=0\n\
             basket S len=0 high_water=7",
        );
        assert_eq!(sum_kv(&stats, "shard ", "baskets_in"), 40.0);
        assert_eq!(max_kv(&stats, "shard ", "baskets_in"), 30.0);
        assert_eq!(kv(&stats[2], "high_water"), Some(7.0));
        let spans = lines(
            "batch 1 spans=2\n  t_micros=1 hop=wal_append dur_micros=9 stream=S\n  \
             t_micros=2 hop=receptor dur_micros=20 stream=S",
        );
        assert_eq!(span_durations(&spans, "wal_append"), vec![9.0]);
    }
}
