//! The regression guard for every committed bench baseline.
//!
//! Compares a freshly exported `BENCH_<name>.json` against its committed
//! `BENCH_baseline_*.json` row by row (rows matched by `op`) and exits
//! non-zero when any row breaks one of its bench's rules, or is missing.
//!
//! | bench | rules per row |
//! |---|---|
//! | `micro` | `ns_per_op` ≤ 2x baseline |
//! | `recovery` | `ns_per_op` ≤ 3x baseline |
//! | `chaos` | `outages` ≥ 1, `recovered` = `outages`, `resume_fallbacks` = 0, `delta_ratio` ≥ baseline, `ns_per_op` ≤ 5x baseline |
//!
//! The timing factors are loose on purpose: CI machines vary, but the
//! failures these exist for cost far more. An accidental return to a
//! per-line allocating diff costs over an order of magnitude on the
//! zero-copy rows. So does a per-record fsync on the journal append
//! path, or replay that is no longer bounded by live state. Recovery
//! rows touch the filesystem, and chaos rows time millisecond-scale
//! reconnects over real sockets, hence their wider factors. The chaos
//! behaviour rules are exact because that suite is seeded: a reconnect
//! that degrades to a full transfer is a correctness bug (paper §5.1),
//! not a slowdown.
//!
//! Usage: `cargo run --release -p shadow-bench --bin bench_guard --
//! <micro|recovery|chaos>` after that bench has written its JSON (see
//! `just bench-diff`, `just bench-recovery`, `just chaos`).

use std::fs;
use std::process::ExitCode;

use shadow_bench::{parse_rows, Row};

/// One check a current row must pass.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// `field` may be at most `max` times the baseline row's value.
    Ratio { field: &'static str, max: f64 },
    /// `field` must be at least `min`.
    Min { field: &'static str, min: f64 },
    /// `field` must be exactly `value`.
    Exact { field: &'static str, value: f64 },
    /// `field` must equal the row's own `other` field.
    Equal {
        field: &'static str,
        other: &'static str,
    },
    /// `field` must not fall below the baseline row's value.
    Floor { field: &'static str },
}

impl Rule {
    /// Checks `cur` against `base`: a short summary when the row
    /// passes, the reason when it does not.
    fn check(self, base: &Row, cur: &Row) -> Result<String, String> {
        let field = |row: &Row, name: &str, which: &str| {
            row.get(name)
                .ok_or_else(|| format!("{name} missing from the {which} row"))
        };
        match self {
            Rule::Ratio { field: name, max } => {
                let base_v = field(base, name, "baseline")?;
                let cur_v = field(cur, name, "current")?;
                let factor = cur_v / base_v.max(1.0);
                let summary = format!("{name} {cur_v:.0} vs baseline {base_v:.0} ({factor:.2}x)");
                if factor > max {
                    Err(format!("{summary} > {max}x"))
                } else {
                    Ok(summary)
                }
            }
            Rule::Min { field: name, min } => {
                let v = field(cur, name, "current")?;
                if v < min {
                    Err(format!("{name} {v} < {min}"))
                } else {
                    Ok(format!("{name} {v}"))
                }
            }
            Rule::Exact { field: name, value } => {
                let v = field(cur, name, "current")?;
                if v == value {
                    Ok(format!("{name} {v}"))
                } else {
                    Err(format!("{name} {v} != {value}"))
                }
            }
            Rule::Equal { field: name, other } => {
                let v = field(cur, name, "current")?;
                let w = field(cur, other, "current")?;
                if (v - w).abs() > f64::EPSILON {
                    Err(format!("{name} {v} != {other} {w}"))
                } else {
                    Ok(format!("{name} = {other}"))
                }
            }
            Rule::Floor { field: name } => {
                let base_v = field(base, name, "baseline")?;
                let cur_v = field(cur, name, "current")?;
                if cur_v + 1e-9 < base_v {
                    Err(format!("{name} {cur_v:.3} below baseline {base_v:.3}"))
                } else {
                    Ok(format!("{name} {cur_v:.2}"))
                }
            }
        }
    }
}

/// One guarded bench: where its rows are and what they must satisfy.
#[derive(Debug)]
struct Guard {
    bench: &'static str,
    current: &'static str,
    baseline: &'static str,
    rules: &'static [Rule],
}

const GUARDS: [Guard; 3] = [
    Guard {
        bench: "micro",
        current: "BENCH_micro.json",
        baseline: "BENCH_baseline_diff.json",
        rules: &[Rule::Ratio {
            field: "ns_per_op",
            max: 2.0,
        }],
    },
    Guard {
        bench: "recovery",
        current: "BENCH_recovery.json",
        baseline: "BENCH_baseline_recovery.json",
        rules: &[Rule::Ratio {
            field: "ns_per_op",
            max: 3.0,
        }],
    },
    Guard {
        bench: "chaos",
        current: "BENCH_chaos.json",
        baseline: "BENCH_baseline_chaos.json",
        rules: &[
            Rule::Min {
                field: "outages",
                min: 1.0,
            },
            Rule::Equal {
                field: "recovered",
                other: "outages",
            },
            Rule::Exact {
                field: "resume_fallbacks",
                value: 0.0,
            },
            Rule::Floor {
                field: "delta_ratio",
            },
            Rule::Ratio {
                field: "ns_per_op",
                max: 5.0,
            },
        ],
    },
];

/// Checks every baseline row against the current rows; returns the
/// failure messages (empty when the bench passes) after printing a
/// line per passing row.
fn guard(g: &Guard, baseline: &[Row], current: &[Row]) -> Vec<String> {
    let mut failures = Vec::new();
    for base in baseline {
        let op = &base.op;
        let Some(cur) = current.iter().find(|r| &r.op == op) else {
            failures.push(format!("{op}: row missing from {}", g.current));
            continue;
        };
        let mut summaries = Vec::new();
        for rule in g.rules {
            match rule.check(base, cur) {
                Ok(summary) => summaries.push(summary),
                Err(reason) => failures.push(format!("{op}: {reason}")),
            }
        }
        if summaries.len() == g.rules.len() {
            println!(
                "bench_guard {}: ok   {op}: {}",
                g.bench,
                summaries.join(", ")
            );
        }
    }
    failures
}

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let Some(g) = GUARDS.iter().find(|g| g.bench == arg) else {
        let names: Vec<&str> = GUARDS.iter().map(|g| g.bench).collect();
        eprintln!("usage: bench_guard <{}>", names.join("|"));
        return ExitCode::FAILURE;
    };
    let root = shadow_bench::bench_output_dir();
    let read = |name: &str| {
        let path = root.join(name);
        fs::read_to_string(&path).map_err(|e| format!("cannot read {} ({e})", path.display()))
    };
    let (current, baseline) = match (read(g.current), read(g.baseline)) {
        (Ok(current), Ok(baseline)) => (parse_rows(&current), parse_rows(&baseline)),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_guard {}: {e}", g.bench);
            return ExitCode::FAILURE;
        }
    };
    if baseline.is_empty() {
        eprintln!(
            "bench_guard {}: no rows in {}; nothing to guard",
            g.bench, g.baseline
        );
        return ExitCode::FAILURE;
    }
    let failures = guard(g, &baseline, &current);
    if failures.is_empty() {
        println!(
            "bench_guard {}: {} rows pass against {}",
            g.bench,
            baseline.len(),
            g.baseline
        );
        ExitCode::SUCCESS
    } else {
        for failure in failures {
            eprintln!("bench_guard {}: FAIL {failure}", g.bench);
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(fields: &[(&str, f64)]) -> Row {
        Row {
            op: "op".to_string(),
            fields: fields.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    fn chaos() -> &'static Guard {
        GUARDS.iter().find(|g| g.bench == "chaos").unwrap()
    }

    #[test]
    fn ratio_rule_bounds_the_slowdown_factor() {
        let rule = Rule::Ratio {
            field: "ns_per_op",
            max: 2.0,
        };
        let base = row(&[("ns_per_op", 1000.0)]);
        assert!(rule.check(&base, &row(&[("ns_per_op", 2000.0)])).is_ok());
        assert!(rule.check(&base, &row(&[("ns_per_op", 2001.0)])).is_err());
        assert!(
            rule.check(&base, &row(&[])).is_err(),
            "a missing field fails"
        );
    }

    #[test]
    fn min_rule_rejects_values_below_the_bound() {
        let rule = Rule::Min {
            field: "outages",
            min: 1.0,
        };
        assert!(rule.check(&row(&[]), &row(&[("outages", 1.0)])).is_ok());
        assert!(rule.check(&row(&[]), &row(&[("outages", 0.0)])).is_err());
    }

    #[test]
    fn exact_rule_accepts_only_the_value() {
        let rule = Rule::Exact {
            field: "resume_fallbacks",
            value: 0.0,
        };
        assert!(rule
            .check(&row(&[]), &row(&[("resume_fallbacks", 0.0)]))
            .is_ok());
        assert!(rule
            .check(&row(&[]), &row(&[("resume_fallbacks", 1.0)]))
            .is_err());
    }

    #[test]
    fn equal_rule_compares_two_fields_of_one_row() {
        let rule = Rule::Equal {
            field: "recovered",
            other: "outages",
        };
        let ok = row(&[("outages", 4.0), ("recovered", 4.0)]);
        let bad = row(&[("outages", 4.0), ("recovered", 3.0)]);
        assert!(rule.check(&row(&[]), &ok).is_ok());
        assert!(rule.check(&row(&[]), &bad).is_err());
    }

    #[test]
    fn floor_rule_rejects_a_drop_below_the_baseline() {
        let rule = Rule::Floor {
            field: "delta_ratio",
        };
        let base = row(&[("delta_ratio", 1.0)]);
        assert!(rule.check(&base, &row(&[("delta_ratio", 1.0)])).is_ok());
        assert!(rule.check(&base, &row(&[("delta_ratio", 0.75)])).is_err());
    }

    #[test]
    fn chaos_rules_fail_a_row_that_degraded_to_full_transfer() {
        let base = row(&[
            ("outages", 4.0),
            ("recovered", 4.0),
            ("resume_fallbacks", 0.0),
            ("delta_ratio", 1.0),
            ("ns_per_op", 1e6),
        ]);
        let base = std::slice::from_ref(&base);
        assert!(guard(chaos(), base, base).is_empty());
        let degraded = row(&[
            ("outages", 4.0),
            ("recovered", 4.0),
            ("resume_fallbacks", 1.0),
            ("delta_ratio", 0.75),
            ("ns_per_op", 1e6),
        ]);
        assert_eq!(guard(chaos(), base, &[degraded]).len(), 2);
        assert_eq!(guard(chaos(), base, &[]).len(), 1, "a missing row fails");
    }
}
