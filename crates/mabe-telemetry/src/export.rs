//! Registry export: hand-rolled JSON snapshots and Prometheus text
//! exposition format (no serde — this crate stays dependency-free).

use std::fmt::Write as _;

use crate::histogram::{bucket_upper_bound, HistogramSnapshot, BUCKET_COUNT};
use crate::registry::{Key, Registry};

/// Escapes `s` for use inside a JSON string literal: quotes,
/// backslashes and control characters. The one escaper the exporters,
/// the wide-event records and the obs endpoints share.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_labels(key: &Key) -> String {
    let fields: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash first, then quote and newline (a raw newline would split
/// the sample line and corrupt the whole scrape).
fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn prom_labels(key: &Key, extra: Option<(&str, String)>) -> String {
    let mut pairs: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", k, prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl Registry {
    /// The full registry state as a JSON document: counters, gauges,
    /// and histograms with count/sum/mean and p50/p95/p99 estimates.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": [");
        let counters = self.counters();
        for (i, (key, value)) in counters.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                if i > 0 { "," } else { "" },
                json_escape(&key.name),
                json_labels(key),
                value
            );
        }
        out.push_str("\n  ],\n  \"gauges\": [");
        let gauges = self.gauges();
        for (i, (key, value)) in gauges.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                if i > 0 { "," } else { "" },
                json_escape(&key.name),
                json_labels(key),
                value
            );
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        let histograms = self.histograms();
        for (i, (key, snap)) in histograms.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    {{\"name\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                if i > 0 { "," } else { "" },
                json_escape(&key.name),
                json_labels(key),
                snap.count,
                snap.sum,
                snap.mean().unwrap_or(0.0),
                snap.p50().unwrap_or(0),
                snap.p95().unwrap_or(0),
                snap.p99().unwrap_or(0),
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// The registry in Prometheus text exposition format. Histograms
    /// emit cumulative `_bucket{le=...}` series (empty buckets are
    /// skipped), `_sum` and `_count`. Each metric family gets exactly
    /// one `# TYPE` line — series are sorted by name, so label variants
    /// of a family are adjacent and share the header.
    pub fn prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            if name != last_family {
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_family = name.to_string();
            }
        };
        for (key, value) in self.counters() {
            type_line(&mut out, &key.name, "counter");
            let _ = writeln!(out, "{}{} {}", key.name, prom_labels(&key, None), value);
        }
        for (key, value) in self.gauges() {
            type_line(&mut out, &key.name, "gauge");
            let _ = writeln!(out, "{}{} {}", key.name, prom_labels(&key, None), value);
        }
        for (key, snap) in self.histograms() {
            type_line(&mut out, &key.name, "histogram");
            write_prom_histogram(&mut out, &key, &snap);
        }
        out
    }
}

fn write_prom_histogram(out: &mut String, key: &Key, snap: &HistogramSnapshot) {
    let mut cumulative = 0u64;
    for i in 0..BUCKET_COUNT {
        if snap.buckets[i] == 0 {
            continue;
        }
        cumulative += snap.buckets[i];
        let le = bucket_upper_bound(i).to_string();
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            key.name,
            prom_labels(key, Some(("le", le))),
            cumulative
        );
    }
    let _ = writeln!(
        out,
        "{}_bucket{} {}",
        key.name,
        prom_labels(key, Some(("le", "+Inf".to_string()))),
        snap.count
    );
    let _ = writeln!(
        out,
        "{}_sum{} {}",
        key.name,
        prom_labels(key, None),
        snap.sum
    );
    let _ = writeln!(
        out,
        "{}_count{} {}",
        key.name,
        prom_labels(key, None),
        snap.count
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_snapshot_contains_each_instrument() {
        let r = Registry::new();
        r.counter("requests_total", &[("route", "store")]).add(3);
        r.gauge("queue_depth", &[]).set(-2);
        let h = r.histogram("latency_us", &[]);
        h.record(5);
        h.record(7);
        let json = r.snapshot_json();
        assert!(json.contains("\"name\":\"requests_total\""));
        assert!(json.contains("\"route\":\"store\""));
        assert!(json.contains("\"value\":3"));
        assert!(json.contains("\"value\":-2"));
        assert!(json.contains("\"count\":2"));
        assert!(json.contains("\"sum\":12"));
    }

    #[test]
    fn json_escapes_control_and_quote_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn prometheus_emits_cumulative_buckets() {
        let r = Registry::new();
        let h = r.histogram("op_latency_us", &[("op", "decrypt")]);
        h.record(1); // bucket le=1
        h.record(3); // bucket le=3
        h.record(3);
        let text = r.prometheus();
        assert!(text.contains("# TYPE op_latency_us histogram"));
        assert!(text.contains("op_latency_us_bucket{op=\"decrypt\",le=\"1\"} 1"));
        assert!(text.contains("op_latency_us_bucket{op=\"decrypt\",le=\"3\"} 3"));
        assert!(text.contains("op_latency_us_bucket{op=\"decrypt\",le=\"+Inf\"} 3"));
        assert!(text.contains("op_latency_us_sum{op=\"decrypt\"} 7"));
        assert!(text.contains("op_latency_us_count{op=\"decrypt\"} 3"));
    }

    #[test]
    fn prometheus_declares_each_family_once() {
        let r = Registry::new();
        r.counter("ops_total", &[("op", "a")]).inc();
        r.counter("ops_total", &[("op", "b")]).inc();
        r.counter("other_total", &[]).inc();
        let text = r.prometheus();
        assert_eq!(text.matches("# TYPE ops_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE other_total counter").count(), 1);
    }

    #[test]
    fn prometheus_escapes_quote_backslash_and_newline_in_labels() {
        let r = Registry::new();
        r.counter(
            "weird_total",
            &[("path", "a\\b"), ("msg", "say \"hi\"\nbye")],
        )
        .inc();
        let text = r.prometheus();
        assert!(
            text.contains("path=\"a\\\\b\""),
            "backslash escaped: {text}"
        );
        assert!(
            text.contains("msg=\"say \\\"hi\\\"\\nbye\""),
            "quote and newline escaped: {text}"
        );
        // A raw newline inside a label value would split the sample
        // line and corrupt the whole scrape.
        assert!(!text.contains("\nbye"), "raw newline leaked: {text}");
    }

    #[test]
    fn prometheus_counter_without_labels_has_no_braces() {
        let r = Registry::new();
        r.counter("plain_total", &[]).inc();
        assert!(r.prometheus().contains("plain_total 1\n"));
    }
}
