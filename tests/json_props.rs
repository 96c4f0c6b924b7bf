//! Never-panic properties of the one JSON reader and the three report
//! validators built on it (vendored proptest shim): byte soup, JSON
//! token soup, truncations of real reports and nesting bombs all come
//! back as `Ok` or `Err` — never a panic, never a stack overflow.

use pmor_bench::{validate_bench_json, write_bench_json_in, BenchRecord};
use pmor_json::parse_json;
use pmor_lint::graph::check_graph;
use pmor_lint::{
    validate_callgraph_json, validate_lint_json, write_callgraph_json_in, write_lint_json_in,
    CallGraph, Finding, LedgerEntry, LintKind, LintReport, SourceFile,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Feeds `text` to the parser and every validator; the only contract
/// checked here is that each returns.
fn read_everywhere(text: &str) {
    let _ = parse_json(text);
    let _ = validate_bench_json(text);
    let _ = validate_lint_json(text);
    let _ = validate_callgraph_json(text);
}

fn out_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pmor_json_props_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One real report of each kind, as the writers lay them out.
fn written_reports() -> &'static [String] {
    static REPORTS: OnceLock<Vec<String>> = OnceLock::new();
    REPORTS.get_or_init(write_reports)
}

fn write_reports() -> Vec<String> {
    let dir = out_dir();
    let bench = write_bench_json_in(
        &dir,
        "props",
        &[BenchRecord::new("lowrank", "rc_mesh(\"1089\")", 0.5)
            .metric("median_seconds", 0.5)
            .metric("dim", 1089.0)
            .metric("worst_err", f64::NAN)
            .metric("factor_nnz", 1.0e6)
            .metric("fill_ratio", 12.5)
            .label("ordering", "amd")],
    )
    .unwrap();
    let lint = write_lint_json_in(
        &dir,
        "props",
        &LintReport {
            files_scanned: 1,
            findings: vec![Finding {
                rule: LintKind::PanicInLib,
                file: "crates/core/src/rom.rs".into(),
                line: 12,
                message: "`unwrap()` in \\ library \"code\"".into(),
            }],
            allows: vec![LedgerEntry {
                rule: LintKind::DetWallclock,
                file: "crates/x.rs".into(),
                line: 3,
                reason: "tab\tand é".into(),
                used: true,
            }],
            bad_allows: Vec::new(),
        },
    )
    .unwrap();
    let src = "pub fn eval_into(out: &mut [f64]) {\n    helper(out);\n}\n\
               fn helper(out: &mut [f64]) {\n    let v = out.to_vec();\n}\n";
    let graph = CallGraph::build(&[SourceFile::parse("crates/core/src/x.rs", src)]);
    let witnesses = check_graph(&graph);
    let callgraph = write_callgraph_json_in(&dir, "props", &graph, &witnesses).unwrap();
    let texts: Vec<String> = [bench, lint, callgraph]
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect();
    validate_bench_json(&texts[0]).unwrap();
    validate_lint_json(&texts[1]).unwrap();
    validate_callgraph_json(&texts[2]).unwrap();
    texts
}

/// Tokens that steer the parser into every state, including the keys
/// and value shapes the validators look for.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\n",
    "\"",
    "\\",
    "\\u",
    "\\ud800",
    "d83d",
    "null",
    "true",
    "fals",
    "0",
    "-",
    "1e400",
    "1e-400",
    "2.5",
    "1.2.3",
    "e",
    "\"tag\"",
    "\"x\"",
    "\"records\"",
    "\"metrics\"",
    "\"labels\"",
    "\"median_seconds\"",
    "\"dim\"",
    "\"findings\"",
    "\"allows\"",
    "\"summary\"",
    "\"rule\"",
    "\"panic-in-lib\"",
    "\"line\"",
    "\"nodes\"",
    "\"edges\"",
    "\"kernel_roots\"",
    "\"id\"",
    "\"kernel\"",
    "\u{1F980}",
    "\u{1}",
];

fn token_soup() -> impl Strategy<Value = String> {
    pvec(0usize..TOKENS.len(), 0..80)
        .prop_map(|idx| idx.into_iter().map(|i| TOKENS[i]).collect::<String>())
}

fn byte_soup() -> impl Strategy<Value = String> {
    pvec(0u64..256, 0..200).prop_map(|raw| {
        let bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_soup_never_panics(text in byte_soup()) {
        read_everywhere(&text);
    }

    #[test]
    fn token_soup_never_panics(text in token_soup()) {
        read_everywhere(&text);
    }

    #[test]
    fn truncated_reports_are_rejected(which in 0usize..3, cut in 0u64..1 << 16) {
        let text = &written_reports()[which];
        // Any cut before the closing brace leaves an unclosed object.
        let body = text.trim_end();
        let mut cut = (cut as usize) % body.len();
        while !body.is_char_boundary(cut) {
            cut -= 1;
        }
        let prefix = &body[..cut];
        read_everywhere(prefix);
        prop_assert!(parse_json(prefix).is_err(), "prefix of {cut} bytes parsed");
        prop_assert!(validate_bench_json(prefix).is_err());
        prop_assert!(validate_lint_json(prefix).is_err());
        prop_assert!(validate_callgraph_json(prefix).is_err());
    }

    #[test]
    fn spliced_reports_never_panic(which in 0usize..3, at in 0u64..1 << 16, text in token_soup()) {
        let report = &written_reports()[which];
        let mut at = (at as usize) % report.len();
        while !report.is_char_boundary(at) {
            at -= 1;
        }
        read_everywhere(&format!("{}{text}{}", &report[..at], &report[at..]));
    }
}

#[test]
fn nesting_bombs_are_rejected_without_overflowing_the_stack() {
    let bombs = [
        "[".repeat(200) + &"]".repeat(200),
        "{\"a\":".repeat(200) + "1" + &"}".repeat(200),
        "[".repeat(100_000),
        format!(
            "{{\"tag\": \"t\", \"records\": {}{}}}",
            "[".repeat(200),
            "]".repeat(200)
        ),
        format!(
            "{{\"tag\": \"t\", \"nodes\": {}{}}}",
            "[{\"id\": ".repeat(200),
            "}]".repeat(200)
        ),
    ];
    for bomb in &bombs {
        assert!(parse_json(bomb).is_err());
        assert!(validate_bench_json(bomb).is_err());
        assert!(validate_lint_json(bomb).is_err());
        assert!(validate_callgraph_json(bomb).is_err());
    }
}
