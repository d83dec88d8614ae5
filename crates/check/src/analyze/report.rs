//! Rendering and baseline handling for analysis findings.
//!
//! The baseline file is the escape hatch that keeps CI deny-by-default
//! honest: every suppressed finding is a committed line with a stable
//! key (`rule|entry|fact_fn|token`, or `rule|file|file|token` for a
//! file-scope finding — no line numbers, so unrelated edits don't churn
//! it), and unknown keys in the baseline are reported so
//! fixed findings get removed from the file rather than rotting there.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

use shadow_obs::Json;

use super::rules::AnalysisFinding;
use super::AnalysisStats;

/// The rule names, in report order.
pub const RULE_NAMES: &[&str] = &[
    "panic-reach",
    "alloc-reach",
    "clock-reach",
    "fs-reach",
    "net-reach",
    "shard-shape",
    "wall-clock",
    "decode-panic",
    "obs-panic",
    "diff-hot-alloc",
    "thread-purity",
    "variant-coverage",
];

/// A parsed baseline: the set of suppressed finding keys.
#[derive(Debug, Default)]
pub struct Baseline {
    keys: BTreeSet<String>,
}

impl Baseline {
    /// Loads a baseline file: one key per line, `#` comments and blank
    /// lines ignored.
    pub fn load(path: &Path) -> io::Result<Baseline> {
        let text = fs::read_to_string(path)?;
        let keys = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(str::to_string)
            .collect();
        Ok(Baseline { keys })
    }

    /// Splits findings into (kept, suppressed); also returns baseline
    /// keys that matched nothing (stale entries worth deleting).
    pub fn apply(
        &self,
        findings: Vec<AnalysisFinding>,
    ) -> (Vec<AnalysisFinding>, Vec<AnalysisFinding>, Vec<String>) {
        let mut kept = Vec::new();
        let mut suppressed = Vec::new();
        let mut used: BTreeSet<&str> = BTreeSet::new();
        for f in findings {
            let key = f.key();
            if let Some(k) = self.keys.iter().find(|k| **k == key) {
                used.insert(k.as_str());
                suppressed.push(f);
            } else {
                kept.push(f);
            }
        }
        let stale = self
            .keys
            .iter()
            .filter(|k| !used.contains(k.as_str()))
            .cloned()
            .collect();
        (kept, suppressed, stale)
    }
}

/// Renders the human-readable report.
pub fn render_human(
    kept: &[AnalysisFinding],
    suppressed: &[AnalysisFinding],
    stale: &[String],
    stats: &AnalysisStats,
    wall_ms: u64,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "analyzed {} files, {} fns, {} call edges, {} facts in {} ms",
        stats.files, stats.fns, stats.edges, stats.facts, wall_ms
    );
    for rule in RULE_NAMES {
        let n = kept.iter().filter(|f| f.rule == *rule).count();
        let b = suppressed.iter().filter(|f| f.rule == *rule).count();
        let _ = writeln!(out, "  {rule:<16} {n} finding(s), {b} baselined");
    }
    for f in kept {
        let _ = writeln!(out, "{f}");
    }
    for key in stale {
        let _ = writeln!(out, "stale baseline entry (fixed? delete it): {key}");
    }
    if kept.is_empty() && stale.is_empty() {
        let _ = writeln!(out, "analysis clean");
    }
    out
}

/// Renders the JSON export (the `BENCH_analysis.json` CI artifact),
/// following the repo's bench JSON shape: a `rows` array plus
/// run-level fields.
pub fn render_json(
    kept: &[AnalysisFinding],
    suppressed: &[AnalysisFinding],
    stale: &[String],
    stats: &AnalysisStats,
    wall_ms: u64,
) -> String {
    let mut rows = Vec::new();
    for rule in RULE_NAMES {
        let n = kept.iter().filter(|f| f.rule == *rule).count();
        let b = suppressed.iter().filter(|f| f.rule == *rule).count();
        rows.push(
            Json::object()
                .with("rule", *rule)
                .with("findings", n as u64)
                .with("baselined", b as u64),
        );
    }
    let findings: Vec<Json> = kept
        .iter()
        .map(|f| {
            Json::object()
                .with("rule", f.rule)
                .with("key", f.key())
                .with("file", f.file.as_str())
                .with("line", u64::from(f.line))
                .with("entry", f.entry.as_str())
                .with("fact_fn", f.fact_fn.as_str())
                .with("token", f.token.as_str())
                .with(
                    "chain",
                    Json::Arr(f.chain.iter().map(|c| Json::Str(c.clone())).collect()),
                )
        })
        .collect();
    Json::object()
        .with("bench", "analysis")
        .with("quick", false)
        .with("rows", Json::Arr(rows))
        .with("files", stats.files as u64)
        .with("fns", stats.fns as u64)
        .with("edges", stats.edges as u64)
        .with("facts", stats.facts as u64)
        .with("wall_ms", wall_ms)
        .with("findings", Json::Arr(findings))
        .with(
            "stale_baseline",
            Json::Arr(stale.iter().map(|s| Json::Str(s.clone())).collect()),
        )
        .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str, token: &str) -> AnalysisFinding {
        AnalysisFinding {
            rule,
            entry: String::from("a::entry"),
            fact_fn: String::from("b::fact"),
            token: token.to_string(),
            file: String::from("crates/b/src/lib.rs"),
            line: 7,
            chain: vec![String::from("a::entry"), String::from("b::fact")],
            message: String::from("test finding"),
        }
    }

    fn stats() -> AnalysisStats {
        AnalysisStats {
            files: 2,
            fns: 5,
            edges: 4,
            facts: 3,
        }
    }

    #[test]
    fn baseline_splits_and_reports_stale() {
        let mut b = Baseline::default();
        b.keys.insert(finding("panic-reach", ".unwrap(").key());
        b.keys.insert(String::from("alloc-reach|gone|gone|gone"));
        let (kept, suppressed, stale) = b.apply(vec![
            finding("panic-reach", ".unwrap("),
            finding("alloc-reach", ".to_vec("),
        ]);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].rule, "alloc-reach");
        assert_eq!(suppressed.len(), 1);
        assert_eq!(stale, vec![String::from("alloc-reach|gone|gone|gone")]);
    }

    #[test]
    fn human_report_lists_counts_and_chain() {
        let kept = vec![finding("panic-reach", ".unwrap(")];
        let text = render_human(&kept, &[], &[], &stats(), 12);
        assert!(text.contains("panic-reach      1 finding(s), 0 baselined"));
        assert!(text.contains("via a::entry -> b::fact"));
        let clean = render_human(&[], &[], &[], &stats(), 12);
        assert!(clean.contains("analysis clean"));
    }

    #[test]
    fn json_is_well_formed_and_counts_per_rule() {
        let kept = vec![finding("panic-reach", ".unwrap(")];
        let sup = vec![finding("alloc-reach", ".to_vec(")];
        let text = render_json(&kept, &sup, &[], &stats(), 9);
        assert!(text.contains("\"bench\": \"analysis\""));
        assert!(text.contains("\"rule\": \"panic-reach\""));
        assert!(text.contains("\"findings\": 1"));
        assert!(text.contains("\"baselined\": 1"));
        assert!(text.contains("\"wall_ms\": 9"));
    }
}
