//! Runs the submit-cycle benchmark.
//!
//! ```text
//! shadow-e2e [--seed N] [--seconds S] [--agreement R]
//! shadow-e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--workload`, one workload runs in this process: `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer metrics.
//! Every metric prints as `workload metric value unit`, and the last
//! line is one JSON object `{correct, attempted, failed, metrics}`.
//!
//! Without it, every workload runs in a child process of its own, first
//! untraced and then traced; any child's failure fails the command. With
//! `--agreement R`, each workload instead runs two alternating sets of R
//! untraced runs, and the command checks that the two sets' medians
//! agree within every end-to-end metric's bound.

use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use shadow::Json;
use shadow_e2e::run::{END_TO_END, TAIL};
use shadow_e2e::stats::min_samples;
use shadow_e2e::{CountingAlloc, RunConfig, Workload};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: shadow-e2e [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--agreement R]";

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    agreement: Option<usize>,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: shadow_e2e::DEFAULT_SEED,
        seconds: 20,
        trace: false,
        agreement: None,
    };
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                let workload = Workload::from_name(&value);
                args.workload = Some(workload.ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            "--agreement" => args.agreement = Some(number()?.max(1) as usize),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.workload, args.agreement) {
        (Some(workload), _) => run_one(workload, &args),
        (None, None) => run_all(&args),
        (None, Some(runs)) => agreement(&args, runs),
    }
}

/// Runs one workload in this process and prints its metrics.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let duration = Duration::from_secs(args.seconds);
    let config = RunConfig {
        workload,
        seed: args.seed,
        // Traced runs measure two passes, untraced and traced.
        duration: if args.trace { duration / 2 } else { duration },
        min_cycles: min_samples(TAIL),
        setups: if args.trace { 1 } else { SETUPS },
        trace: args.trace,
    };
    let result = match shadow_e2e::run(&config) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if let Some(failure) = &result.failure {
        eprintln!("{}: {failure}", workload.name());
    }
    if args.trace {
        match result.write_spans() {
            Ok(path) => eprintln!("{}: spans written to {}", workload.name(), path.display()),
            Err(e) => {
                eprintln!("{}: writing spans: {e}", workload.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let metrics = if args.trace {
        result.per_layer.clone()
    } else {
        result.end_to_end.clone()
    };
    let name = workload.name();
    println!("{name} cycles {} count", result.cycles);
    println!("{name} attempted {} count", result.attempted);
    println!("{name} failed {} count", result.failed);
    println!("{name} correct {} bool", result.correct());
    let mut rows = Vec::new();
    for m in metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
        rows.push((m.name, m.value, m.unit.to_string()));
    }
    println!(
        "{}",
        summary(result.correct(), result.attempted, result.failed, rows)
    );
    ExitCode::SUCCESS
}

/// The machine-readable last line.
fn summary(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, String)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| (name, Json::object().with("value", value).with("unit", unit)))
        .collect();
    Json::object()
        .with("correct", correct)
        .with("attempted", attempted)
        .with("failed", failed)
        .with("metrics", Json::Obj(metrics))
        .render()
}

/// What a child run printed, parsed back from its metric lines.
#[derive(Debug, Default)]
struct ChildRun {
    ok: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, String)>,
}

/// Runs one workload in a child process of this binary.
fn child(workload: Workload, args: &Args, trace: bool) -> ChildRun {
    let output = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
    });
    let mut run = ChildRun::default();
    let Ok(output) = output else {
        eprintln!("{}: could not start the child process", workload.name());
        return run;
    };
    let mut correct = false;
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [w, metric, value, unit] = fields[..] else {
            continue;
        };
        if w != workload.name() {
            continue;
        }
        println!("{line}");
        match metric {
            "correct" => correct = value == "true",
            "attempted" => run.attempted = value.parse().unwrap_or(0),
            "failed" => run.failed = value.parse().unwrap_or(usize::MAX),
            "cycles" => {}
            _ => {
                if let Ok(v) = value.parse() {
                    run.metrics.push((metric.to_string(), v, unit.to_string()));
                }
            }
        }
    }
    run.ok = output.status.success() && correct && run.failed == 0;
    if !run.ok {
        eprintln!("{}: the run failed ({})", workload.name(), output.status);
    }
    run
}

/// Every workload, untraced then traced, each in its own process.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let run = child(workload, args, trace);
            ok &= run.ok;
            attempted += run.attempted;
            failed += run.failed;
            for (name, value, unit) in run.metrics {
                metrics.push((format!("{}.{name}", workload.name()), value, unit));
            }
        }
    }
    println!("{}", summary(ok, attempted, failed, metrics));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Two alternating sets of `runs` untraced runs per workload; every
/// end-to-end metric's two medians must agree within its bound.
fn agreement(args: &Args, runs: usize) -> ExitCode {
    let mut ok = true;
    for workload in Workload::ALL {
        let mut sets: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * runs {
            let run = child(workload, args, false);
            ok &= run.ok;
            sets[i % 2].push(run);
        }
        for spec in END_TO_END {
            let values = |set: &[ChildRun]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.iter().find(|m| m.0 == spec.name))
                    .map(|m| m.1)
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let agree = a.len() == runs && b.len() == runs && spec.bound.agree(spec.better, &a, &b);
            ok &= agree;
            println!(
                "{} {} set_a={a:?} set_b={b:?} {}",
                workload.name(),
                spec.name,
                if agree { "agree" } else { "DISAGREE" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
