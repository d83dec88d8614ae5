//! Shared helpers for the benchmark harnesses.
//!
//! Each `[[bench]]` target under `benches/` regenerates one table or
//! figure of the paper's evaluation (or one ablation of a design choice
//! from DESIGN.md), prints the rows to stdout, and exports the same rows
//! machine-readably as `BENCH_<name>.json` in the workspace root (see
//! [`export_json`]); `cargo bench` runs them all. The micro-benchmarks
//! (`micro`, `ablation_diff_algos`) additionally use Criterion for real
//! CPU-time measurements.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};

use shadow_obs::Json;

/// Prints a banner so `cargo bench` output separates cleanly per figure.
pub fn banner(title: &str, context: &str) {
    println!();
    println!("==============================================================");
    println!("{title}");
    println!("{context}");
    println!("==============================================================");
}

/// True when the harness should run a reduced sweep (CI smoke mode),
/// controlled by `SHADOW_BENCH_QUICK=1`.
pub fn quick_mode() -> bool {
    std::env::var("SHADOW_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Directory benchmark JSON lands in: `SHADOW_BENCH_DIR` when set,
/// otherwise the workspace root. Cargo runs bench binaries with the
/// *crate* directory as CWD, so the root is found by walking up to the
/// first directory holding a `Cargo.lock`; if none is found the CWD
/// itself is used.
pub fn bench_output_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("SHADOW_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir: &Path = &cwd;
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.to_path_buf();
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd,
        }
    }
}

/// Deterministic blob pair for the chunk-codec benches: a `len`-byte
/// file plus a copy with a 1 KB splice in the middle. `binary` selects
/// NUL-bearing bytes; otherwise the blob is printable with no newlines
/// at all (one giant "line" — the shape that defeats the line differ).
pub fn blob_pair(len: usize, binary: bool, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut state = seed | 1;
    let mut base = Vec::with_capacity(len);
    for _ in 0..len {
        // xorshift64*: cheap, deterministic, no deps.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let b = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8;
        base.push(if binary { b } else { b' ' + b % 94 });
    }
    let mut edited = base.clone();
    let mid = len / 2;
    let splice = 1024.min(len / 2);
    for (i, slot) in edited[mid..mid + splice].iter_mut().enumerate() {
        *slot = if binary { i as u8 } else { b'A' + (i % 26) as u8 };
    }
    (base, edited)
}

/// Wraps benchmark rows in the common export envelope:
/// `{"bench": <name>, "quick": <bool>, "rows": [...]}`.
pub fn bench_doc(name: &str, rows: Vec<Json>) -> Json {
    Json::object()
        .with("bench", name)
        .with("quick", quick_mode())
        .with("rows", Json::Arr(rows))
}

/// Writes `doc` to `BENCH_<name>.json` in [`bench_output_dir`] and
/// reports where it went. Export failure is reported, not fatal: the
/// stdout table is the primary artifact and must still appear.
pub fn export_json(name: &str, doc: &Json) {
    let path = bench_output_dir().join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, doc.render_pretty()) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// One-call export for the common case: wrap `rows` in the envelope and
/// write `BENCH_<name>.json`.
pub fn export_rows(name: &str, rows: Vec<Json>) {
    export_json(name, &bench_doc(name, rows));
}

/// One exported row: its `op` name and every numeric field, in
/// document order.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The row's `op` name.
    pub op: String,
    /// Every `"name": number` field of the row.
    pub fields: Vec<(String, f64)>,
}

impl Row {
    /// The first numeric field called `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.fields
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// Splits a `BENCH_*.json` document as produced by [`export_rows`] into
/// rows at each `"op"` key and scans every `"name": number` field of
/// the chunk. A scanner for our own export format (numbers are never
/// quoted, keys never contain escapes), not a general JSON parser.
pub fn parse_rows(doc: &str) -> Vec<Row> {
    let mut rows = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find("\"op\":") {
        rest = &rest[at + "\"op\":".len()..];
        let Some(open) = rest.find('"') else { break };
        rest = &rest[open + 1..];
        let Some(close) = rest.find('"') else { break };
        let op = rest[..close].to_string();
        rest = &rest[close + 1..];
        let chunk_end = rest.find("\"op\":").unwrap_or(rest.len());
        let chunk = &rest[..chunk_end];
        let mut fields = Vec::new();
        let mut scan = chunk;
        while let Some(key_open) = scan.find('"') {
            scan = &scan[key_open + 1..];
            let Some(key_close) = scan.find('"') else { break };
            let key = scan[..key_close].to_string();
            scan = &scan[key_close + 1..];
            let Some(colon) = scan.find(':') else { break };
            let val = scan[colon + 1..].trim_start();
            let end = val.find([',', '}', '\n', ']']).unwrap_or(val.len());
            if let Ok(num) = val[..end].trim().parse::<f64>() {
                fields.push((key, num));
            }
        }
        rows.push(Row { op, fields });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_ns_rows_reads_own_export_format() {
        let doc = bench_doc(
            "micro",
            vec![
                Json::object()
                    .with("op", "alpha")
                    .with("bytes", 10usize)
                    .with("ns_per_op", 12.5)
                    .with("mb_per_sec", 1.0),
                Json::object().with("op", "no_ns_field").with("bytes", 1usize),
                Json::object().with("op", "beta").with("ns_per_op", 3000usize),
            ],
        )
        .render_pretty();
        let rows = parse_rows(&doc);
        let ops: Vec<&str> = rows.iter().map(|r| r.op.as_str()).collect();
        assert_eq!(ops, ["alpha", "no_ns_field", "beta"]);
        assert_eq!(rows[0].get("ns_per_op"), Some(12.5));
        assert_eq!(rows[0].get("bytes"), Some(10.0));
        assert_eq!(rows[0].get("mb_per_sec"), Some(1.0));
        assert_eq!(rows[1].get("ns_per_op"), None, "fields stay within their row");
        assert_eq!(rows[2].get("ns_per_op"), Some(3000.0));
    }

    #[test]
    fn parse_ns_rows_tolerates_garbage() {
        assert!(parse_rows("").is_empty());
        assert!(parse_rows("not json at all").is_empty());
        let truncated = parse_rows("{\"op\": \"x\"");
        assert_eq!(truncated.len(), 1);
        assert_eq!(truncated[0].get("ns_per_op"), None);
    }
}
