//! `shadow-status` — the paper's `status` command (§6.2).
//!
//! "The status command, which accepts a job identifier as an argument,
//! allows a user to find out the status of a job submitted earlier."
//!
//! ```text
//! shadow-status --server ADDR:PORT [JOBID] [--domain N] [--host NAME]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use shadow::{connect_tcp, ClientConfig, JobId, Notification};

fn usage() -> ! {
    eprintln!("usage: shadow-status --server ADDR:PORT [JOBID] [--domain N] [--host NAME]");
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut server = String::new();
    let mut job: Option<u64> = None;
    let mut domain = 1u64;
    let mut host = std::env::var("HOSTNAME").unwrap_or_else(|_| "localhost".to_string());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--server" => server = args.next().unwrap_or_else(|| usage()),
            "--domain" => {
                domain = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--host" => host = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            id if !id.starts_with('-') => job = Some(id.parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    if server.is_empty() {
        usage()
    }
    match run(&server, job.map(JobId::new), domain, &host) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("shadow-status: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(
    server: &str,
    job: Option<JobId>,
    domain: u64,
    host: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = connect_tcp(ClientConfig::new(host, domain), server)?;
    client.wait_ready(Duration::from_secs(10))?;
    client.status(job)?;
    let n = client.wait_for(Duration::from_secs(10), |n| {
        matches!(n, Notification::StatusReport { .. })
    })?;
    if let Notification::StatusReport { entries, .. } = n {
        if entries.is_empty() {
            println!("no pending jobs for this session");
        }
        for e in entries {
            println!(
                "{}\t{}\tsubmitted at {} ms",
                e.job, e.status, e.submitted_at_ms
            );
        }
    }
    Ok(())
}
