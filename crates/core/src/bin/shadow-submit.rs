//! `shadow-submit` — the paper's `submit` command (§6.2).
//!
//! "The submit command accepts a list of file names, the name of a job
//! command file and a few optional arguments … The submit command returns
//! a job identifier … After a job is executed, the output and the errors
//! (if any) are returned automatically. The optional arguments allow the
//! user to specify the names of files into which the system stores output
//! and error messages."
//!
//! ```text
//! shadow-submit --server ADDR:PORT JOBFILE [DATAFILE...]
//!               [--output FILE] [--errors FILE] [--deliver-to HOST]
//!               [--priority N] [--shadow-output] [--timeout SECS]
//!               [--state-dir DIR] [--domain N] [--host NAME]
//! ```
//!
//! Version chains persist in `--state-dir` (default `.shadow-state`), so a
//! later `shadow-submit` of an edited file travels as a delta — run it
//! twice and watch the payload collapse.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use shadow::persist;
use shadow::{connect_tcp, ClientConfig, ContentDigest, FileId, FileRef, HostName, SubmitOptions};

struct Options {
    server: String,
    job_file: Option<PathBuf>,
    data_files: Vec<PathBuf>,
    output: Option<PathBuf>,
    errors: Option<PathBuf>,
    deliver_to: Option<String>,
    priority: u8,
    shadow_output: bool,
    timeout: u64,
    state_dir: PathBuf,
    domain: u64,
    host: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: shadow-submit --server ADDR:PORT JOBFILE [DATAFILE...]\n\
         \x20                 [--output FILE] [--errors FILE] [--deliver-to HOST]\n\
         \x20                 [--priority N] [--shadow-output] [--timeout SECS]\n\
         \x20                 [--state-dir DIR] [--domain N] [--host NAME]"
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        server: String::new(),
        job_file: None,
        data_files: Vec::new(),
        output: None,
        errors: None,
        deliver_to: None,
        priority: 0,
        shadow_output: false,
        timeout: 60,
        state_dir: PathBuf::from(".shadow-state"),
        domain: 1,
        host: hostname(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("shadow-submit: {what} requires a value");
                usage()
            })
        };
        match arg.as_str() {
            "--server" => opts.server = value("--server"),
            "--output" => opts.output = Some(PathBuf::from(value("--output"))),
            "--errors" => opts.errors = Some(PathBuf::from(value("--errors"))),
            "--deliver-to" => opts.deliver_to = Some(value("--deliver-to")),
            "--priority" => opts.priority = value("--priority").parse().unwrap_or_else(|_| usage()),
            "--shadow-output" => opts.shadow_output = true,
            "--timeout" => opts.timeout = value("--timeout").parse().unwrap_or_else(|_| usage()),
            "--state-dir" => opts.state_dir = PathBuf::from(value("--state-dir")),
            "--domain" => opts.domain = value("--domain").parse().unwrap_or_else(|_| usage()),
            "--host" => opts.host = value("--host"),
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => {
                if opts.job_file.is_none() {
                    opts.job_file = Some(PathBuf::from(path));
                } else {
                    opts.data_files.push(PathBuf::from(path));
                }
            }
            other => {
                eprintln!("shadow-submit: unknown argument {other:?}");
                usage()
            }
        }
    }
    if opts.server.is_empty() || opts.job_file.is_none() {
        usage()
    }
    opts
}

fn hostname() -> String {
    std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".to_string())
}

/// The CLI's name resolution: canonicalize the path on this host (the
/// OS resolves symlinks — the real-filesystem analogue of §6.5) and derive
/// the domain-unique file id from `host NUL path`.
fn file_ref(host: &str, path: &Path) -> std::io::Result<FileRef> {
    let canonical = std::fs::canonicalize(path)?;
    let name = format!("{host}:{}", canonical.display());
    let digest = ContentDigest::of(format!("{host}\u{0}{}", canonical.display()).as_bytes());
    Ok(FileRef::new(FileId::new(digest.as_u64()), name))
}

fn main() -> ExitCode {
    let opts = parse_args();
    match run(&opts) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("shadow-submit: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(opts: &Options) -> Result<ExitCode, Box<dyn std::error::Error>> {
    let mut client = connect_tcp(
        ClientConfig::new(opts.host.clone(), opts.domain),
        &opts.server,
    )?;
    let loaded = persist::load_state(&opts.state_dir, client.node_mut())?;
    if loaded.restored > 0 {
        eprintln!(
            "shadow-submit: restored {} shadow version(s) from {}",
            loaded.restored,
            opts.state_dir.display()
        );
    }
    if loaded.degraded() {
        eprintln!(
            "shadow-submit: warning: skipped {} corrupt state entr(y/ies) in {}",
            loaded.skipped,
            opts.state_dir.display()
        );
    }
    client.wait_ready(Duration::from_secs(10))?;

    // Register the current contents of every file (the shadow editor's
    // post-processing step, batched).
    let job_path = opts.job_file.as_deref().expect("validated");
    let job_ref = file_ref(&opts.host, job_path)?;
    client.edit_finished(&job_ref, std::fs::read(job_path)?);
    let mut data_refs = Vec::new();
    for path in &opts.data_files {
        let fref = file_ref(&opts.host, path)?;
        eprintln!(
            "shadow-submit: data file {} → {}",
            path.display(),
            fref.name
        );
        client.edit_finished(&fref, std::fs::read(path)?);
        data_refs.push(fref);
    }

    let request = client.submit(
        &job_ref,
        &data_refs,
        SubmitOptions {
            output_file: opts.output.as_ref().map(|p| p.display().to_string()),
            error_file: opts.errors.as_ref().map(|p| p.display().to_string()),
            deliver_to: opts.deliver_to.clone().map(HostName::new),
            priority: opts.priority,
            shadow_output: opts.shadow_output,
        },
    )?;
    eprintln!("shadow-submit: submitted as {request}");

    let (job, output, errors, stats) = client.wait_job(Duration::from_secs(opts.timeout))?;
    eprintln!(
        "shadow-submit: {job} finished (exit {}, ran {} ms, waited {} ms)",
        stats.exit_code, stats.running_ms, stats.waiting_ms
    );
    let m = client.report();
    eprintln!(
        "shadow-submit: traffic: {} delta(s), {} full transfer(s), {} payload bytes",
        m.counter("client", "deltas_sent"),
        m.counter("client", "fulls_sent"),
        m.counter("client", "update_payload_bytes")
    );

    match &opts.output {
        Some(path) => std::fs::write(path, &output)?,
        None => {
            use std::io::Write;
            std::io::stdout().write_all(&output)?;
        }
    }
    if !errors.is_empty() {
        match &opts.errors {
            Some(path) => std::fs::write(path, &errors)?,
            None => {
                use std::io::Write;
                std::io::stderr().write_all(&errors)?;
            }
        }
    }

    persist::save_state(&opts.state_dir, client.node())?;
    Ok(if stats.exit_code == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
