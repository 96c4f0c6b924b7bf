//! Machine-readable lint reports: `LINT_<tag>.json` and
//! `CALLGRAPH_<tag>.json`.
//!
//! The format mirrors the `BENCH_*.json` discipline from `pmor-bench`:
//! a flat, line-per-record layout written with the `pmor-json` writer
//! primitives and validated by parsing it back and checking every
//! field by type ([`validate_lint_json`], [`validate_callgraph_json`])
//! in the CI artifact gate — so a lint trajectory can be diffed across
//! changes exactly like the bench trajectory. On top of the findings,
//! the report carries the full **allow ledger**: every suppression in the
//! workspace, with its reason and whether it still suppresses anything
//! (an unused allow is itself an error — the ledger never rots).

use crate::graph::{CallGraph, TransitiveFinding};
use crate::rules::LintKind;
use pmor_json::{json_string, parse_json, Json};
use std::path::PathBuf;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: LintKind,
    /// Workspace-relative file path (`/` separators).
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// One ledger entry: a suppression directive and its standing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerEntry {
    /// The rule the directive suppresses.
    pub rule: LintKind,
    /// File of the directive.
    pub file: String,
    /// 1-based line of the directive.
    pub line: usize,
    /// The mandatory justification.
    pub reason: String,
    /// Whether the directive suppressed at least one finding.
    pub used: bool,
}

/// A malformed directive, anchored to its file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadAllowEntry {
    /// File of the directive.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong with it.
    pub message: String,
}

/// Outcome of a lint run over a file set.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// Files scanned.
    pub files_scanned: usize,
    /// Violations that survived suppression, in (file, line) order.
    pub findings: Vec<Finding>,
    /// The complete allow ledger (used and unused entries).
    pub allows: Vec<LedgerEntry>,
    /// Malformed directives.
    pub bad_allows: Vec<BadAllowEntry>,
}

impl LintReport {
    /// Ledger entries that suppressed at least one finding.
    pub fn allows_used(&self) -> usize {
        self.allows.iter().filter(|a| a.used).count()
    }

    /// Ledger entries that suppress nothing (errors).
    pub fn allows_unused(&self) -> usize {
        self.allows.len() - self.allows_used()
    }

    /// Whether the run is clean: no findings, no unused allows, no
    /// malformed directives. This is what `pmor lint --check` gates on.
    pub fn clean(&self) -> bool {
        self.findings.is_empty() && self.allows_unused() == 0 && self.bad_allows.is_empty()
    }
}

/// Serializes a report to `LINT_<tag>.json` in `dir` and returns the
/// path written. One record line per finding and per ledger entry, in
/// the `BENCH_*.json` house layout.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_lint_json_in(
    dir: &std::path::Path,
    tag: &str,
    report: &LintReport,
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("LINT_{tag}.json"));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tag\": {},\n", json_string(tag)));
    push_records(&mut out, "findings", &report.findings, |_, f| {
        format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            json_string(f.rule.name()),
            json_string(&f.file),
            f.line,
            json_string(&f.message),
        )
    });
    push_records(&mut out, "allows", &report.allows, |_, a| {
        format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"used\": {}, \"reason\": {}}}",
            json_string(a.rule.name()),
            json_string(&a.file),
            a.line,
            a.used,
            json_string(&a.reason),
        )
    });
    out.push_str(&format!(
        "  \"summary\": {{\"files_scanned\": {}, \"findings\": {}, \"allows_used\": {}, \
         \"allows_unused\": {}, \"bad_allows\": {}}}\n",
        report.files_scanned,
        report.findings.len(),
        report.allows_used(),
        report.allows_unused(),
        report.bad_allows.len()
    ));
    out.push_str("}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Checks that `text` is a `LINT_*.json` file produced by
/// [`write_lint_json_in`]: a file-level `tag`, a `findings` array whose
/// every record carries a **registered** rule id, a file and a line, an
/// `allows` array whose every record carries rule/file/line/used/reason,
/// and a `summary` with the allow-ledger counts. The file is parsed as
/// JSON and every field is checked by type (strings, non-negative
/// integers, booleans).
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn validate_lint_json(text: &str) -> Result<(), String> {
    let doc = report_doc(text)?;
    for (i, f) in array(&doc, "findings")?.iter().enumerate() {
        let ctx = format!("finding {}", i + 1);
        rule_id(f, &ctx)?;
        f.field("file", Json::as_str, &ctx)?;
        f.field("line", Json::as_usize, &ctx)?;
    }
    for (i, a) in array(&doc, "allows")?.iter().enumerate() {
        let ctx = format!("allow {}", i + 1);
        rule_id(a, &ctx)?;
        a.field("file", Json::as_str, &ctx)?;
        a.field("line", Json::as_usize, &ctx)?;
        a.field("used", Json::as_bool, &ctx)?;
        a.field("reason", Json::as_str, &ctx)?;
    }
    summary(
        &doc,
        &[
            "files_scanned",
            "findings",
            "allows_used",
            "allows_unused",
            "bad_allows",
        ],
    )
}

/// Serializes a call graph plus its witness paths to
/// `CALLGRAPH_<tag>.json` in `dir` and returns the path written. The
/// witness list is the *raw* transitive-rule output (pre-suppression):
/// the report documents every kernel→sink route the analysis proved,
/// including routes the allow ledger has already re-justified —
/// that is what makes it a reachability proof artifact rather than a
/// findings dump.
///
/// # Errors
///
/// Propagates file-creation and write failures.
pub fn write_callgraph_json_in(
    dir: &std::path::Path,
    tag: &str,
    graph: &CallGraph,
    witnesses: &[TransitiveFinding],
) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("CALLGRAPH_{tag}.json"));
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"tag\": {},\n", json_string(tag)));
    push_records(&mut out, "nodes", &graph.nodes, |id, n| {
        format!(
            "{{\"id\": {id}, \"fn\": {}, \"file\": {}, \"line\": {}, \"kernel\": {}}}",
            json_string(&n.name),
            json_string(&n.file),
            n.line,
            n.is_kernel,
        )
    });
    push_records(&mut out, "edges", &graph.edges, |_, e| {
        format!(
            "{{\"caller\": {}, \"callee\": {}, \"line\": {}, \"candidates\": {}}}",
            e.caller, e.callee, e.line, e.candidates,
        )
    });
    out.push_str(&format!(
        "  \"kernel_roots\": [{}],\n",
        graph
            .kernel_roots()
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    push_records(&mut out, "panic_sinks", &graph.panic_sinks, |_, s| {
        format!(
            "{{\"node\": {}, \"line\": {}, \"what\": {}, \"ledgered\": {}}}",
            s.node,
            s.line,
            json_string(s.what),
            s.ledgered,
        )
    });
    push_records(&mut out, "witness_paths", witnesses, |_, w| {
        format!(
            "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"path\": {}}}",
            json_string(w.finding.rule.name()),
            json_string(&w.finding.file),
            w.finding.line,
            json_string(&graph.path_names(&w.path)),
        )
    });
    out.push_str(&format!(
        "  \"summary\": {{\"nodes\": {}, \"edges\": {}, \"kernel_roots\": {}, \
         \"panic_sinks\": {}, \"witness_paths\": {}, \"ambiguous_edges\": {}}}\n",
        graph.nodes.len(),
        graph.edges.len(),
        graph.kernel_roots().len(),
        graph.panic_sinks.len(),
        witnesses.len(),
        graph.edges.iter().filter(|e| e.candidates > 1).count()
    ));
    out.push_str("}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Checks that `text` is a `CALLGRAPH_*.json` file produced by
/// [`write_callgraph_json_in`]: a file-level `tag`; a `nodes` array
/// whose records carry id/fn/file/line/kernel with ids counting up
/// from 0; an `edges` array whose caller/callee ids are in node range;
/// `kernel_roots` ids in range; `panic_sinks` records with
/// node/line/what/ledgered; `witness_paths` records whose rule ids are
/// **registered**; and a `summary` with the six counts. The file is
/// parsed as JSON and every field is checked by type.
///
/// # Errors
///
/// Returns a message naming the first missing or malformed field.
pub fn validate_callgraph_json(text: &str) -> Result<(), String> {
    let doc = report_doc(text)?;
    let nodes = array(&doc, "nodes")?;
    for (i, n) in nodes.iter().enumerate() {
        let ctx = format!("node {i}");
        if n.field("id", Json::as_usize, &ctx)? != i {
            return Err(format!("{ctx}: ids must count up from 0"));
        }
        n.field("fn", Json::as_str, &ctx)?;
        n.field("file", Json::as_str, &ctx)?;
        n.field("line", Json::as_usize, &ctx)?;
        n.field("kernel", Json::as_bool, &ctx)?;
    }
    let node_id = |rec: &Json, key: &str, ctx: &str| match rec.field(key, Json::as_usize, ctx)? {
        id if id < nodes.len() => Ok(()),
        _ => Err(format!("{ctx}: {key} id out of node range")),
    };
    for (i, e) in array(&doc, "edges")?.iter().enumerate() {
        let ctx = format!("edge {}", i + 1);
        node_id(e, "caller", &ctx)?;
        node_id(e, "callee", &ctx)?;
        e.field("line", Json::as_usize, &ctx)?;
        e.field("candidates", Json::as_usize, &ctx)?;
    }
    for (i, root) in array(&doc, "kernel_roots")?.iter().enumerate() {
        if root.as_usize().is_none_or(|id| id >= nodes.len()) {
            return Err(format!("kernel_roots: entry {} is not a node id", i + 1));
        }
    }
    for (i, s) in array(&doc, "panic_sinks")?.iter().enumerate() {
        let ctx = format!("panic sink {}", i + 1);
        node_id(s, "node", &ctx)?;
        s.field("line", Json::as_usize, &ctx)?;
        s.field("what", Json::as_str, &ctx)?;
        s.field("ledgered", Json::as_bool, &ctx)?;
    }
    for (i, w) in array(&doc, "witness_paths")?.iter().enumerate() {
        let ctx = format!("witness path {}", i + 1);
        rule_id(w, &ctx)?;
        w.field("file", Json::as_str, &ctx)?;
        w.field("line", Json::as_usize, &ctx)?;
        w.field("path", Json::as_str, &ctx)?;
    }
    summary(
        &doc,
        &[
            "nodes",
            "edges",
            "kernel_roots",
            "panic_sinks",
            "witness_paths",
            "ambiguous_edges",
        ],
    )
}

/// Appends the array `name` in the house layout: one record line per
/// item, rendered by `record` from the item's index and value.
fn push_records<T>(
    out: &mut String,
    name: &str,
    items: &[T],
    record: impl Fn(usize, &T) -> String,
) {
    out.push_str(&format!("  \"{name}\": [\n"));
    for (i, item) in items.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&record(i, item));
        out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
}

/// Parses a report and checks its file-level string `tag`.
fn report_doc(text: &str) -> Result<Json, String> {
    let doc = parse_json(text).map_err(|e| format!("not JSON: {e}"))?;
    doc.field("tag", Json::as_str, "file")?;
    Ok(doc)
}

/// The report's top-level array `name`.
fn array<'a>(doc: &'a Json, name: &str) -> Result<&'a [Json], String> {
    doc.field(name, Json::as_array, "file")
}

/// Checks that a record's `rule` is a registered rule id.
fn rule_id(rec: &Json, ctx: &str) -> Result<(), String> {
    let rule = rec.field("rule", Json::as_str, ctx)?;
    match LintKind::from_name(rule) {
        Some(_) => Ok(()),
        None => Err(format!("{ctx}: unregistered rule id {rule:?}")),
    }
}

/// Checks that the `summary` object carries every count in `counts`.
fn summary(doc: &Json, counts: &[&str]) -> Result<(), String> {
    let summary = doc.field("summary", |s| s.as_object().map(|_| s), "file")?;
    for count in counts {
        summary.field(count, Json::as_usize, "summary")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            files_scanned: 2,
            findings: vec![Finding {
                rule: LintKind::PanicInLib,
                file: "crates/core/src/rom.rs".into(),
                line: 12,
                message: "`unwrap()` in library code".into(),
            }],
            allows: vec![LedgerEntry {
                rule: LintKind::DetWallclock,
                file: "crates/variation/src/analysis.rs".into(),
                line: 30,
                reason: "provenance-only timing".into(),
                used: true,
            }],
            bad_allows: Vec::new(),
        }
    }

    #[test]
    fn written_reports_validate() {
        let dir = std::env::temp_dir().join("pmor_lint_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_lint_json_in(&dir, "unit", &sample()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"tag\": \"unit\""));
        assert!(text.contains("\"rule\": \"panic-in-lib\""));
        assert!(text.contains("\"used\": true"));
        assert!(text.contains("\"allows_unused\": 0"));
        validate_lint_json(&text).unwrap();

        // An empty report is still a valid file (zero findings is the
        // desired steady state, unlike bench's "no records" rejection).
        let path = write_lint_json_in(&dir, "empty", &LintReport::default()).unwrap();
        validate_lint_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    }

    fn sample_graph() -> (CallGraph, Vec<TransitiveFinding>) {
        let src = "\
pub fn eval_into(out: &mut [f64]) {\n    helper(out);\n}\n\
fn helper(out: &mut [f64]) {\n    let v = out.to_vec();\n}\n";
        let file = crate::scan::SourceFile::parse("crates/core/src/x.rs", src);
        let graph = CallGraph::build(&[file]);
        let witnesses = crate::graph::check_graph(&graph);
        (graph, witnesses)
    }

    #[test]
    fn written_callgraph_reports_validate() {
        let dir = std::env::temp_dir().join("pmor_callgraph_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (graph, witnesses) = sample_graph();
        assert!(!witnesses.is_empty(), "sample should yield a witness");
        let path = write_callgraph_json_in(&dir, "unit", &graph, &witnesses).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"tag\": \"unit\""));
        assert!(text.contains("\"fn\": \"eval_into\""));
        assert!(text.contains("\"rule\": \"kernel-transitive-alloc\""));
        assert!(text.contains("\"path\": \"eval_into -> helper\""));
        validate_callgraph_json(&text).unwrap();

        // An empty graph is a valid (if sad) report.
        let path = write_callgraph_json_in(&dir, "empty", &CallGraph::default(), &[]).unwrap();
        validate_callgraph_json(&std::fs::read_to_string(&path).unwrap()).unwrap();
    }

    #[test]
    fn callgraph_validator_rejects_structural_damage() {
        let dir = std::env::temp_dir().join("pmor_callgraph_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (graph, witnesses) = sample_graph();
        let path = write_callgraph_json_in(&dir, "v", &graph, &witnesses).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        assert!(validate_callgraph_json("{}").is_err());
        let no_nodes = good.replace("\"nodes\": [", "\"sedon\": [");
        assert!(validate_callgraph_json(&no_nodes)
            .unwrap_err()
            .contains("nodes"));
        let bad_edge = good.replace("\"caller\": 0", "\"caller\": 99");
        assert!(validate_callgraph_json(&bad_edge)
            .unwrap_err()
            .contains("out of node range"));
        let bad_rule = good.replace("kernel-transitive-alloc", "made-up-rule");
        assert!(validate_callgraph_json(&bad_rule)
            .unwrap_err()
            .contains("unregistered rule"));
        let bad_root = good.replace("\"kernel_roots\": [0]", "\"kernel_roots\": [7]");
        assert!(validate_callgraph_json(&bad_root)
            .unwrap_err()
            .contains("kernel_roots"));
        let no_summary = good.replace("ambiguous_edges", "x");
        assert!(validate_callgraph_json(&no_summary)
            .unwrap_err()
            .contains("ambiguous_edges"));
    }

    #[test]
    fn validators_check_field_types_not_just_names() {
        let dir = std::env::temp_dir().join("pmor_lint_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_lint_json_in(&dir, "types", &sample()).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        let string_line = good.replace("\"line\": 12,", "\"line\": \"12\",");
        assert_ne!(string_line, good);
        let err = validate_lint_json(&string_line).unwrap_err();
        assert!(err.contains("finding 1") && err.contains("line"), "{err}");

        let (graph, witnesses) = sample_graph();
        let path = write_callgraph_json_in(&dir, "types", &graph, &witnesses).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        let string_kernel = good.replace("\"kernel\": true", "\"kernel\": \"true\"");
        assert_ne!(string_kernel, good);
        let err = validate_callgraph_json(&string_kernel).unwrap_err();
        assert!(err.contains("kernel"), "{err}");
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let dir = std::env::temp_dir().join("pmor_lint_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = write_lint_json_in(&dir, "v", &sample()).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();

        assert!(validate_lint_json("{}").is_err());
        let no_tag = good.replace("\"tag\"", "\"gat\"");
        assert!(validate_lint_json(&no_tag).unwrap_err().contains("tag"));
        let bad_rule = good.replace("panic-in-lib", "made-up-rule");
        assert!(validate_lint_json(&bad_rule)
            .unwrap_err()
            .contains("unregistered rule"));
        let no_line = good.replace("\"line\": 12, \"message\"", "\"message\"");
        assert!(validate_lint_json(&no_line).unwrap_err().contains("line"));
        let no_summary = good.replace("allows_unused", "x");
        assert!(validate_lint_json(&no_summary)
            .unwrap_err()
            .contains("allows_unused"));
    }
}
