//! Machine-readable experiment records.
//!
//! Every figure/table binary emits, next to its human-oriented CSV/ASCII
//! stdout, a `BENCH_<tag>.json` file in the working directory so the
//! performance and accuracy trajectory of the workspace can be tracked
//! across changes without parsing log text. The format is deliberately
//! flat: one record per (method × workload) with wall-clock seconds and a
//! free-form metric map.

use pmor_json::{json_number, json_string, parse_json, Json};
use std::path::PathBuf;

/// One measured (method × workload) data point.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Reduction method (registry name, or a harness-specific label).
    pub method: String,
    /// Workload / circuit the method ran on.
    pub workload: String,
    /// Wall-clock seconds of the measured step.
    pub wall_seconds: f64,
    /// Named scalar metrics (model size, error norms, counters, …).
    pub metrics: Vec<(String, f64)>,
    /// Named string annotations (provenance that is not a number, e.g.
    /// the resolved fill-reducing ordering). Emitted as a `"labels"`
    /// object after the metrics; omitted entirely when empty, so
    /// records without labels serialize exactly as before.
    pub labels: Vec<(String, String)>,
}

impl BenchRecord {
    /// Creates a record with empty metric and label maps.
    pub fn new(method: impl Into<String>, workload: impl Into<String>, wall_seconds: f64) -> Self {
        BenchRecord {
            method: method.into(),
            workload: workload.into(),
            wall_seconds,
            metrics: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Adds one named metric (builder-style).
    #[must_use]
    pub fn metric(mut self, name: impl Into<String>, value: f64) -> Self {
        self.metrics.push((name.into(), value));
        self
    }

    /// Adds one named string label (builder-style).
    #[must_use]
    pub fn label(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.labels.push((name.into(), value.into()));
        self
    }
}

/// Serializes `records` to `BENCH_<tag>.json` in the current directory
/// and returns the path written.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_bench_json(tag: &str, records: &[BenchRecord]) -> std::io::Result<PathBuf> {
    write_bench_json_in(std::path::Path::new("."), tag, records)
}

/// [`write_bench_json`] into an explicit directory.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_bench_json_in(
    dir: &std::path::Path,
    tag: &str,
    records: &[BenchRecord],
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{tag}.json"));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tag\": {},\n", json_string(tag)));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"method\": {}, ", json_string(&r.method)));
        out.push_str(&format!("\"workload\": {}, ", json_string(&r.workload)));
        out.push_str(&format!(
            "\"wall_seconds\": {}, \"metrics\": {{",
            json_number(r.wall_seconds)
        ));
        for (j, (name, value)) in r.metrics.iter().enumerate() {
            out.push_str(&format!("{}: {}", json_string(name), json_number(*value)));
            if j + 1 < r.metrics.len() {
                out.push_str(", ");
            }
        }
        out.push('}');
        if !r.labels.is_empty() {
            out.push_str(", \"labels\": {");
            for (j, (name, value)) in r.labels.iter().enumerate() {
                out.push_str(&format!("{}: {}", json_string(name), json_string(value)));
                if j + 1 < r.labels.len() {
                    out.push_str(", ");
                }
            }
            out.push('}');
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Metric names every standardized `BENCH_*.json` record must carry (on
/// top of the structural `tag`/`method`/`wall_seconds` fields):
/// `median_seconds` (the headline timing, median over the repeats) and
/// `dim` (the full-system dimension the workload ran at). The CI
/// bench-smoke job rejects records without them via
/// [`validate_bench_json`].
pub const REQUIRED_METRICS: [&str; 2] = ["median_seconds", "dim"];

/// Optional per-record metrics the validator knows how to sanity-check
/// when present: `factor_nnz` (stored nonzeros of the `L + U` factors)
/// and `fill_ratio` (`factor_nnz / matrix nnz`) record ordering quality
/// so fill regressions show up in the bench trajectory. Records that
/// carry one of the pair must carry both, and records that carry them
/// must name the ordering that produced the fill in an `"ordering"`
/// label.
pub const FILL_METRICS: [&str; 2] = ["factor_nnz", "fill_ratio"];

/// Optional per-record metrics stamped by error-controlled adaptive
/// runs: `estimated_error` (the a-posteriori estimator's verdict on the
/// final model), `final_order` (the reduced dimension the driver
/// stopped at) and `expansion_points_used` (distinct parameter-space
/// expansion points). Like [`FILL_METRICS`] they are validated as a
/// coherent set: a record carrying any of them must carry all three, so
/// adaptive provenance can never arrive half-stamped.
pub const ADAPTIVE_METRICS: [&str; 3] = ["estimated_error", "final_order", "expansion_points_used"];

/// Checks that `text` is a `BENCH_*.json` file produced by
/// [`write_bench_json`] whose every record carries the required fields:
/// a file-level string `tag`, and per record string `method` and
/// `workload`, a `wall_seconds` number, a `metrics` object holding the
/// [`REQUIRED_METRICS`] (`median_seconds`, `dim`) as numbers, and the
/// coherent [`FILL_METRICS`] and [`ADAPTIVE_METRICS`] sets. The file is
/// parsed as JSON and every field is checked by type, so a name that
/// appears only as a label or with the wrong type does not count.
///
/// # Errors
///
/// Returns a message naming the first missing or mistyped field.
pub fn validate_bench_json(text: &str) -> Result<(), String> {
    let doc = parse_json(text).map_err(|e| format!("not JSON: {e}"))?;
    doc.field("tag", Json::as_str, "file")?;
    let records = doc.field("records", Json::as_array, "file")?;
    if records.is_empty() {
        return Err("no records".into());
    }
    // A metric is a number, or null where the writer met NaN or ±∞.
    let number_or_null = |v: &Json| matches!(v, Json::Num(_) | Json::Null).then_some(());
    for (i, rec) in records.iter().enumerate() {
        let ctx = format!("record {}", i + 1);
        rec.field("method", Json::as_str, &ctx)?;
        rec.field("workload", Json::as_str, &ctx)?;
        rec.field("wall_seconds", number_or_null, &ctx)?;
        let metrics = rec.field("metrics", Json::as_object, &ctx)?;
        if metrics.iter().any(|(_, v)| number_or_null(v).is_none()) {
            return Err(format!("{ctx}: a metric is neither a number nor null"));
        }
        let labels = match rec.get("labels") {
            None => &[][..],
            Some(labels) => labels
                .as_object()
                .filter(|l| l.iter().all(|(_, v)| v.as_str().is_some()))
                .ok_or(format!("{ctx}: \"labels\" is not an object of strings"))?,
        };
        let metric = |name: &str| metrics.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let has = |name: &str| metric(name).is_some();
        if let Some(name) = REQUIRED_METRICS
            .iter()
            .find(|m| metric(m).and_then(Json::as_f64).is_none())
        {
            return Err(format!("{ctx}: missing metric \"{name}\""));
        }
        // Fill metrics are optional but must arrive as a coherent set:
        // both numbers plus the ordering label that produced the fill.
        if FILL_METRICS.iter().any(|m| has(m)) {
            if let Some(metric) = FILL_METRICS.iter().find(|m| !has(m)) {
                return Err(format!("{ctx}: has fill metrics but misses \"{metric}\""));
            }
            if !labels.iter().any(|(k, _)| k == "ordering") {
                return Err(format!("{ctx}: fill metrics need an \"ordering\" label"));
            }
        }
        // Adaptive provenance is optional but all-or-nothing: a record
        // reporting an estimated error must also say what order and how
        // many expansion points bought it.
        if ADAPTIVE_METRICS.iter().any(|m| has(m)) {
            if let Some(metric) = ADAPTIVE_METRICS.iter().find(|m| !has(m)) {
                return Err(format!(
                    "{ctx}: has adaptive metrics but misses \"{metric}\""
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_numbers() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }

    #[test]
    fn validates_required_fields() {
        let good = vec![BenchRecord::new("lowrank", "rc_mesh(1089)", 0.5)
            .metric("median_seconds", 0.5)
            .metric("dim", 1089.0)];
        let dir = std::env::temp_dir().join("pmor_bench_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_bench_json_in(&dir, "v", &good).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_bench_json(&text).unwrap();

        // Records without the standardized metrics are rejected.
        let bad = vec![BenchRecord::new("lowrank", "rc_mesh(1089)", 0.5)];
        let path = write_bench_json_in(&dir, "v2", &bad).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let err = validate_bench_json(&text).unwrap_err();
        assert!(err.contains("median_seconds"), "{err}");

        // Fill metrics must arrive as a coherent set with their
        // ordering label; records with the full set validate.
        let fill = |rec: BenchRecord| vec![rec];
        let complete = fill(
            BenchRecord::new("lowrank", "rc_mesh(16384)", 0.5)
                .metric("median_seconds", 0.5)
                .metric("dim", 16384.0)
                .metric("factor_nnz", 1.0e6)
                .metric("fill_ratio", 12.5)
                .label("ordering", "amd"),
        );
        let path = write_bench_json_in(&dir, "v4", &complete).unwrap();
        validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for (strip_metric, needle) in [("fill_ratio", "fill_ratio"), ("", "ordering")] {
            let mut rec = complete[0].clone();
            rec.metrics.retain(|(n, _)| n != strip_metric);
            if strip_metric.is_empty() {
                rec.labels.clear();
            }
            let path = write_bench_json_in(&dir, "v5", &[rec]).unwrap();
            let err = validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }

        // Adaptive metrics are likewise all-or-nothing: a full set
        // validates, any partial set is rejected by name.
        let adaptive = BenchRecord::new("multipoint", "rc_mesh(144)", 0.5)
            .metric("median_seconds", 0.5)
            .metric("dim", 144.0)
            .metric("estimated_error", 3.2e-7)
            .metric("final_order", 24.0)
            .metric("expansion_points_used", 3.0);
        let path = write_bench_json_in(&dir, "v6", std::slice::from_ref(&adaptive)).unwrap();
        validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
        for strip in ADAPTIVE_METRICS {
            let mut rec = adaptive.clone();
            rec.metrics.retain(|(n, _)| n != strip);
            let path = write_bench_json_in(&dir, "v7", &[rec]).unwrap();
            let err = validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap_err();
            assert!(err.contains(strip), "{err}");
        }

        // Empty files and non-bench JSON are rejected.
        let path = write_bench_json_in(&dir, "v3", &[]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(validate_bench_json(&text)
            .unwrap_err()
            .contains("no records"));
        assert!(validate_bench_json("{}").is_err());
    }

    #[test]
    fn label_named_like_a_required_metric_is_not_the_metric() {
        let dir = std::env::temp_dir().join("pmor_bench_validate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let rec = BenchRecord::new("lowrank", "rc_mesh(1089)", 0.5)
            .metric("dim", 1089.0)
            .label("median_seconds", "x");
        let path = write_bench_json_in(&dir, "label_only", &[rec]).unwrap();
        let err = validate_bench_json(&std::fs::read_to_string(&path).unwrap()).unwrap_err();
        assert!(err.contains("median_seconds"), "{err}");
    }

    #[test]
    fn writes_wellformed_file() {
        let dir = std::env::temp_dir().join("pmor_bench_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let records = vec![
            BenchRecord::new("lowrank", "rc_random(767)", 0.25)
                .metric("size", 37.0)
                .metric("worst_err", 1.5e-3),
            BenchRecord::new("multipoint", "rc_random(767)", 1.0),
        ];
        let path = write_bench_json_in(&dir, "unit_test", &records).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"tag\": \"unit_test\""));
        assert!(text.contains("\"method\": \"lowrank\""));
        assert!(text.contains("\"worst_err\": 0.0015"));
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        // No labels on these records — the object must be omitted.
        assert!(!text.contains("\"labels\""));

        let labeled = vec![BenchRecord::new("lowrank", "rc_mesh(65536)", 0.25)
            .metric("dim", 65536.0)
            .label("ordering", "amd")];
        let path = write_bench_json_in(&dir, "unit_test_labels", &labeled).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.contains("\"labels\": {\"ordering\": \"amd\"}"),
            "{text}"
        );
    }
}
