//! Perf-gate baselines: declarative tolerance bands over the numeric
//! content of `BENCH_*.json` artifacts.
//!
//! A baseline file (checked in under `crates/mabe-bench/benches/
//! baselines/`) names its source artifact and a list of metrics, each
//! a [`json` lookup path](mabe_obs::json::Value::lookup) into that
//! artifact plus an expected value, a direction and a tolerance band:
//!
//! ```json
//! {
//!   "format": "mabe-bench-baseline/v1",
//!   "bench": "throughput",
//!   "source": "BENCH_throughput.json",
//!   "metrics": [
//!     {"name": "ok_reads_per_s_at_max_clients", "path": "rows[-1].ok_reads_per_s",
//!      "value": 900.0, "direction": "higher", "tolerance_pct": 70}
//!   ]
//! }
//! ```
//!
//! Directions:
//!
//! * `higher` — higher is better; regress when the fresh value drops
//!   below `value × (1 − tolerance_pct/100)`.
//! * `lower` — lower is better; regress when the fresh value rises
//!   above `value × (1 + tolerance_pct/100)`.
//! * `exact` — regress when `|fresh − value|` exceeds
//!   `|value| × tolerance_pct/100` (so `tolerance_pct: 0` demands
//!   equality — the right gate for invariants like `failed_reads`).
//!
//! The bands are deliberately wide for wall-clock metrics (CI hosts
//! vary) and zero for invariants; the gate's job is to catch
//! step-function regressions and broken artifacts, not 5% noise.

use std::fmt::Write as _;
use std::path::Path;

use mabe_obs::json::{self, Value};

/// Which way a metric is allowed to drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Higher is better (throughput, speedup).
    Higher,
    /// Lower is better (latency, replay time).
    Lower,
    /// Must stay put (counts, invariants).
    Exact,
}

impl Direction {
    fn parse(s: &str) -> Option<Direction> {
        match s {
            "higher" => Some(Direction::Higher),
            "lower" => Some(Direction::Lower),
            "exact" => Some(Direction::Exact),
            _ => None,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            Direction::Higher => "higher",
            Direction::Lower => "lower",
            Direction::Exact => "exact",
        }
    }
}

/// One gated metric inside a baseline.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    /// Short stable name shown in reports.
    pub name: String,
    /// Lookup path into the source artifact.
    pub path: String,
    /// The baseline value.
    pub value: f64,
    /// Allowed drift direction.
    pub direction: Direction,
    /// Band width as a percentage of the baseline value.
    pub tolerance_pct: f64,
}

impl MetricSpec {
    /// The value at which this metric starts failing, as a printable
    /// bound description.
    pub fn bound(&self) -> String {
        let band = self.value.abs() * self.tolerance_pct / 100.0;
        match self.direction {
            Direction::Higher => format!(">= {:.3}", self.value - band),
            Direction::Lower => format!("<= {:.3}", self.value + band),
            Direction::Exact => format!("within {band:.3} of {:.3}", self.value),
        }
    }

    /// Whether `fresh` is inside the tolerance band.
    pub fn passes(&self, fresh: f64) -> bool {
        let band = self.value.abs() * self.tolerance_pct / 100.0;
        match self.direction {
            Direction::Higher => fresh >= self.value - band,
            Direction::Lower => fresh <= self.value + band,
            Direction::Exact => (fresh - self.value).abs() <= band,
        }
    }
}

/// A parsed baseline file.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// The bench this gates.
    pub bench: String,
    /// Artifact filename the metrics index into (e.g.
    /// `BENCH_throughput.json`).
    pub source: String,
    /// The gated metrics.
    pub metrics: Vec<MetricSpec>,
}

/// Parses one baseline document.
///
/// # Errors
///
/// A human-readable description of the first schema violation.
pub fn parse_baseline(doc: &str) -> Result<Baseline, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    if v.get("format").and_then(Value::as_str) != Some("mabe-bench-baseline/v1") {
        return Err("missing or unknown baseline format marker".into());
    }
    let bench = v
        .get("bench")
        .and_then(Value::as_str)
        .ok_or("missing 'bench'")?
        .to_owned();
    let source = v
        .get("source")
        .and_then(Value::as_str)
        .ok_or("missing 'source'")?
        .to_owned();
    let Some(Value::Arr(raw_metrics)) = v.get("metrics") else {
        return Err("missing 'metrics' array".into());
    };
    let mut metrics = Vec::new();
    for (i, m) in raw_metrics.iter().enumerate() {
        let field = |k: &str| m.get(k).ok_or(format!("metric {i}: missing '{k}'"));
        let name = field("name")?
            .as_str()
            .ok_or(format!("metric {i}: 'name' not a string"))?
            .to_owned();
        let path = field("path")?
            .as_str()
            .ok_or(format!("metric {i}: 'path' not a string"))?
            .to_owned();
        let value = field("value")?
            .as_f64()
            .ok_or(format!("metric {i}: 'value' not a number"))?;
        let direction = field("direction")?
            .as_str()
            .and_then(Direction::parse)
            .ok_or(format!("metric {i}: bad 'direction'"))?;
        let tolerance_pct = field("tolerance_pct")?
            .as_f64()
            .ok_or(format!("metric {i}: 'tolerance_pct' not a number"))?;
        if tolerance_pct < 0.0 {
            return Err(format!("metric {i}: negative tolerance"));
        }
        metrics.push(MetricSpec {
            name,
            path,
            value,
            direction,
            tolerance_pct,
        });
    }
    Ok(Baseline {
        bench,
        source,
        metrics,
    })
}

/// Serializes a baseline back to its checked-in document form (used
/// by `compare --update` to refresh values in place).
pub fn render_baseline(b: &Baseline) -> String {
    let mut out = String::from("{\n  \"format\": \"mabe-bench-baseline/v1\",\n");
    let _ = writeln!(out, "  \"bench\": \"{}\",", json::escape(&b.bench));
    let _ = writeln!(out, "  \"source\": \"{}\",", json::escape(&b.source));
    out.push_str("  \"metrics\": [\n");
    for (i, m) in b.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"path\": \"{}\", \"value\": {}, \
             \"direction\": \"{}\", \"tolerance_pct\": {}}}",
            json::escape(&m.name),
            json::escape(&m.path),
            m.value,
            m.direction.as_str(),
            m.tolerance_pct
        );
        out.push_str(if i + 1 < b.metrics.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// The verdict for one gated metric.
#[derive(Clone, Debug)]
pub struct MetricOutcome {
    /// The gated metric.
    pub spec: MetricSpec,
    /// The fresh value, or `None` when the lookup path found nothing
    /// numeric (itself a failure — a gate must be loud about a
    /// missing artifact).
    pub fresh: Option<f64>,
    /// Whether the metric stayed inside its band.
    pub pass: bool,
}

/// Diffs one baseline against a fresh artifact document.
pub fn compare(baseline: &Baseline, fresh_doc: &Value) -> Vec<MetricOutcome> {
    baseline
        .metrics
        .iter()
        .map(|spec| {
            let fresh = fresh_doc.lookup(&spec.path).and_then(Value::as_f64);
            let pass = fresh.is_some_and(|f| spec.passes(f));
            MetricOutcome {
                spec: spec.clone(),
                fresh,
                pass,
            }
        })
        .collect()
}

/// Renders one bench's outcomes as the CI-log table.
pub fn render_report(bench: &str, outcomes: &[MetricOutcome]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== perf gate: {bench} ==");
    for o in outcomes {
        let fresh = match o.fresh {
            Some(f) => format!("{f:.3}"),
            None => "MISSING".to_owned(),
        };
        let _ = writeln!(
            out,
            "{}  {}  fresh={} baseline={:.3} band[{}] ({})",
            if o.pass { "PASS" } else { "FAIL" },
            o.spec.name,
            fresh,
            o.spec.value,
            o.spec.bound(),
            o.spec.path,
        );
    }
    out
}

/// The result of gating one whole directory pair.
#[derive(Debug, Default)]
pub struct GateResult {
    /// The printable report.
    pub report: String,
    /// Gated metrics that passed.
    pub passed: usize,
    /// Gated metrics that failed (missing artifact = every metric of
    /// that baseline fails).
    pub failed: usize,
}

impl GateResult {
    /// True when nothing regressed.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}

/// Gates every `*.json` baseline in `baseline_dir` against the
/// artifacts in `fresh_dir`. With `update`, baseline values are
/// rewritten from the fresh run instead of gated (tolerances and
/// paths are kept).
///
/// # Errors
///
/// Propagates filesystem errors on the baseline directory itself;
/// unreadable fresh artifacts are reported as failures, not errors.
pub fn gate_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    update: bool,
) -> std::io::Result<GateResult> {
    let mut result = GateResult::default();
    let mut entries: Vec<_> = std::fs::read_dir(baseline_dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    if entries.is_empty() {
        result.report = format!("no baselines in {}\n", baseline_dir.display());
        result.failed = 1;
        return Ok(result);
    }
    for path in entries {
        let doc = std::fs::read_to_string(&path)?;
        let mut baseline = match parse_baseline(&doc) {
            Ok(b) => b,
            Err(e) => {
                let _ = writeln!(result.report, "FAIL  {}: bad baseline: {e}", path.display());
                result.failed += 1;
                continue;
            }
        };
        let fresh_path = fresh_dir.join(&baseline.source);
        let fresh_doc = std::fs::read_to_string(&fresh_path)
            .ok()
            .and_then(|s| json::parse(&s).ok());
        let Some(fresh_doc) = fresh_doc else {
            let _ = writeln!(
                result.report,
                "FAIL  {}: fresh artifact {} missing or unparsable",
                baseline.bench,
                fresh_path.display()
            );
            result.failed += baseline.metrics.len().max(1);
            continue;
        };
        if update {
            let mut refreshed = 0;
            for m in &mut baseline.metrics {
                if let Some(f) = fresh_doc.lookup(&m.path).and_then(Value::as_f64) {
                    m.value = f;
                    refreshed += 1;
                }
            }
            std::fs::write(&path, render_baseline(&baseline))?;
            let _ = writeln!(
                result.report,
                "UPDATED  {} ({refreshed}/{} metrics refreshed)",
                path.display(),
                baseline.metrics.len()
            );
            result.passed += refreshed;
            result.failed += baseline.metrics.len() - refreshed;
            continue;
        }
        let outcomes = compare(&baseline, &fresh_doc);
        result
            .report
            .push_str(&render_report(&baseline.bench, &outcomes));
        result.passed += outcomes.iter().filter(|o| o.pass).count();
        result.failed += outcomes.iter().filter(|o| !o.pass).count();
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
      "format": "mabe-bench-baseline/v1",
      "bench": "throughput",
      "source": "BENCH_throughput.json",
      "metrics": [
        {"name": "reads_per_s", "path": "rows[-1].reads_per_s",
         "value": 1000.0, "direction": "higher", "tolerance_pct": 50},
        {"name": "corruptions", "path": "rows[-1].corruptions",
         "value": 0, "direction": "exact", "tolerance_pct": 0}
      ]
    }"#;

    fn fresh(reads_per_s: f64, corruptions: u64) -> Value {
        json::parse(&format!(
            "{{\"rows\":[{{\"reads_per_s\":{reads_per_s},\"corruptions\":{corruptions}}}]}}"
        ))
        .unwrap()
    }

    #[test]
    fn within_band_passes() {
        let b = parse_baseline(BASELINE).unwrap();
        let outcomes = compare(&b, &fresh(600.0, 0));
        assert!(outcomes.iter().all(|o| o.pass), "{outcomes:?}");
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let b = parse_baseline(BASELINE).unwrap();
        // 450 < 1000 × (1 − 50%) = 500 → regression.
        let outcomes = compare(&b, &fresh(450.0, 0));
        assert!(!outcomes[0].pass);
        assert!(outcomes[1].pass);
        let report = render_report(&b.bench, &outcomes);
        assert!(report.contains("FAIL  reads_per_s"));
        assert!(report.contains("PASS  corruptions"));
    }

    #[test]
    fn exact_zero_tolerance_gates_invariants() {
        let b = parse_baseline(BASELINE).unwrap();
        let outcomes = compare(&b, &fresh(2000.0, 1));
        assert!(!outcomes[1].pass, "one corruption must fail the gate");
    }

    #[test]
    fn improvements_always_pass() {
        let b = parse_baseline(BASELINE).unwrap();
        let outcomes = compare(&b, &fresh(10_000.0, 0));
        assert!(
            outcomes[0].pass,
            "faster than baseline is never a regression"
        );
    }

    #[test]
    fn missing_path_is_a_loud_failure() {
        let b = parse_baseline(BASELINE).unwrap();
        let empty = json::parse("{}").unwrap();
        let outcomes = compare(&b, &empty);
        assert!(outcomes.iter().all(|o| !o.pass));
        assert!(render_report(&b.bench, &outcomes).contains("MISSING"));
    }

    #[test]
    fn lower_is_better_band() {
        let spec = MetricSpec {
            name: "latency".into(),
            path: "p99".into(),
            value: 100.0,
            direction: Direction::Lower,
            tolerance_pct: 25.0,
        };
        assert!(spec.passes(124.0));
        assert!(!spec.passes(126.0));
        assert!(spec.passes(1.0));
    }

    #[test]
    fn baseline_round_trips_through_render() {
        let b = parse_baseline(BASELINE).unwrap();
        let doc = render_baseline(&b);
        let b2 = parse_baseline(&doc).unwrap();
        assert_eq!(b2.bench, "throughput");
        assert_eq!(b2.metrics.len(), 2);
        assert_eq!(b2.metrics[0].value, 1000.0);
        assert_eq!(b2.metrics[1].direction, Direction::Exact);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline("{\"format\":\"mabe-bench-baseline/v1\"}").is_err());
        let bad_dir = BASELINE.replace("\"higher\"", "\"sideways\"");
        assert!(parse_baseline(&bad_dir).is_err());
    }

    #[test]
    fn gate_dirs_end_to_end_with_a_regressed_run() {
        let root = std::env::temp_dir().join(format!("mabe-gate-test-{}", std::process::id()));
        let bdir = root.join("baselines");
        let fdir = root.join("fresh");
        std::fs::create_dir_all(&bdir).unwrap();
        std::fs::create_dir_all(&fdir).unwrap();
        std::fs::write(bdir.join("BENCH_throughput.json"), BASELINE).unwrap();

        // Healthy run → gate passes.
        std::fs::write(
            fdir.join("BENCH_throughput.json"),
            "{\"rows\":[{\"reads_per_s\":800.0,\"corruptions\":0}]}",
        )
        .unwrap();
        let ok = gate_dirs(&bdir, &fdir, false).unwrap();
        assert!(ok.ok(), "{}", ok.report);
        assert_eq!(ok.passed, 2);

        // Regressed run → nonzero failure count (the documented
        // dry-run of the CI gate's failure mode).
        std::fs::write(
            fdir.join("BENCH_throughput.json"),
            "{\"rows\":[{\"reads_per_s\":10.0,\"corruptions\":0}]}",
        )
        .unwrap();
        let bad = gate_dirs(&bdir, &fdir, false).unwrap();
        assert!(!bad.ok());
        assert!(bad.report.contains("FAIL  reads_per_s"));

        // Missing artifact → loud failure, not a silent skip.
        std::fs::remove_file(fdir.join("BENCH_throughput.json")).unwrap();
        let missing = gate_dirs(&bdir, &fdir, false).unwrap();
        assert!(!missing.ok());

        // Update mode rewrites values from a fresh run.
        std::fs::write(
            fdir.join("BENCH_throughput.json"),
            "{\"rows\":[{\"reads_per_s\":1234.0,\"corruptions\":0}]}",
        )
        .unwrap();
        let updated = gate_dirs(&bdir, &fdir, true).unwrap();
        assert!(updated.ok(), "{}", updated.report);
        let refreshed =
            parse_baseline(&std::fs::read_to_string(bdir.join("BENCH_throughput.json")).unwrap())
                .unwrap();
        assert_eq!(refreshed.metrics[0].value, 1234.0);

        let _ = std::fs::remove_dir_all(&root);
    }
}
