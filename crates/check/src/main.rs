//! `shadow-check` — state-space exploration and static analysis from
//! the command line.
//!
//! ```text
//! shadow-check explore [--profile ci|deep|reorder|in-order] [--scenario NAME]
//!                      [--depth N] [--max-states N] [--seed-bug]
//! shadow-check analyze [--root PATH] [--json] [--baseline FILE]
//! shadow-check scenarios
//! ```
//!
//! Exit status: 0 clean, 1 violation or findings, 2 usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use shadow_check::scenario::scenario_by_name;
use shadow_check::{builtin_scenarios, explore, Profile, Scenario};
use shadow_server::FaultInjection;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("explore") => cmd_explore(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("scenarios") => {
            for s in builtin_scenarios() {
                println!("{:<14} {}", s.name, s.summary);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: shadow-check explore [--profile ci|deep|reorder|in-order] \
         [--scenario NAME] [--depth N] [--max-states N] [--seed-bug]\n\
         \x20      shadow-check analyze [--root PATH] [--json] [--baseline FILE]\n\
         \x20      shadow-check scenarios"
    );
    ExitCode::from(2)
}

fn cmd_explore(args: &[String]) -> ExitCode {
    let mut profile = Profile::ci();
    let mut scenarios: Option<Vec<Scenario>> = None;
    let mut faults = FaultInjection::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => match it.next().map(String::as_str) {
                Some("ci") => profile = Profile::ci(),
                Some("deep") => profile = Profile::deep(),
                Some("reorder") => profile = Profile::reorder(),
                Some("in-order") => profile = Profile::in_order(),
                other => {
                    eprintln!("unknown profile {other:?}");
                    return usage();
                }
            },
            "--scenario" => {
                let Some(name) = it.next() else {
                    return usage();
                };
                let Some(s) = scenario_by_name(name) else {
                    eprintln!("unknown scenario {name:?} (see `shadow-check scenarios`)");
                    return ExitCode::from(2);
                };
                scenarios.get_or_insert_with(Vec::new).push(s);
            }
            "--depth" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => profile.max_depth = n,
                None => return usage(),
            },
            "--max-states" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => profile.max_states = n,
                None => return usage(),
            },
            "--seed-bug" => {
                faults = FaultInjection {
                    delta_base_bug: true,
                }
            }
            _ => {
                eprintln!("unknown argument {arg:?}");
                return usage();
            }
        }
    }
    let scenarios = scenarios.unwrap_or_else(builtin_scenarios);
    let mut failed = false;
    for scenario in &scenarios {
        let report = explore(scenario, &profile, faults);
        let status = match (&report.violation, report.truncated) {
            (Some(_), _) => "VIOLATION",
            (None, true) => "clean (truncated)",
            (None, false) => "clean (exhausted)",
        };
        println!(
            "{:<14} [{}] {} — {} states, {} transitions, depth {}",
            report.scenario,
            report.profile,
            status,
            report.states,
            report.transitions,
            report.deepest
        );
        if let Some(cx) = &report.violation {
            failed = true;
            println!("  violation: {}", cx.violation);
            println!(
                "  counterexample ({} steps, minimized from {}):",
                cx.trace.len(),
                cx.original_len
            );
            for (i, choice) in cx.trace.iter().enumerate() {
                println!("    {:>3}. {choice}", i + 1);
            }
            if !cx.flight.is_empty() {
                println!(
                    "  flight recorder (last {} steps, oldest first):",
                    cx.flight.len()
                );
                for line in &cx.flight {
                    println!("    {line}");
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_analyze(args: &[String]) -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut json = false;
    let mut baseline_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--json" => json = true,
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => {
                eprintln!("unknown argument {arg:?}");
                return usage();
            }
        }
    }
    let root = root.or_else(|| {
        let cwd = std::env::current_dir().ok()?;
        shadow_check::analyze::find_workspace_root(&cwd)
    });
    let Some(root) = root else {
        eprintln!("cannot locate the workspace root (pass --root)");
        return ExitCode::from(2);
    };
    // Default to the committed baseline at the workspace root, if any.
    let baseline_path =
        baseline_path.or_else(|| Some(root.join("analyze-baseline.txt")).filter(|p| p.exists()));
    let baseline = match &baseline_path {
        Some(p) => match shadow_check::analyze::report::Baseline::load(p) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", p.display());
                return ExitCode::from(2);
            }
        },
        None => Default::default(),
    };
    let started = std::time::Instant::now();
    match shadow_check::analyze(&root) {
        Ok((findings, stats)) => {
            let wall_ms = started.elapsed().as_millis() as u64;
            let (kept, suppressed, stale) = baseline.apply(findings);
            let out = if json {
                shadow_check::analyze::report::render_json(
                    &kept,
                    &suppressed,
                    &stale,
                    &stats,
                    wall_ms,
                )
            } else {
                shadow_check::analyze::report::render_human(
                    &kept,
                    &suppressed,
                    &stale,
                    &stats,
                    wall_ms,
                )
            };
            print!("{out}");
            if kept.is_empty() && stale.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("analysis failed to read sources: {e}");
            ExitCode::from(2)
        }
    }
}
