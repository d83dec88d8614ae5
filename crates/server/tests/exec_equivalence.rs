//! Equivalence: the job interpreter gives exactly what its earlier,
//! bytewise form gave, for every command whose body reads lines or
//! words.
//!
//! `reference` below is that earlier form, kept as a model: `wc` counts
//! newlines and splits on `u8::is_ascii_whitespace` one byte at a time,
//! and the line commands copy each line into its own `Vec`. The
//! interpreter must match it on `output`, `errors`, `exit_code` and
//! `cpu_bytes` (which drives the simulated runtime), for arbitrary file
//! bytes and data files of every length mod 8.

use std::collections::HashMap;

use proptest::prelude::*;
use shadow_server::exec::{run_job, ExecOutcome};

mod reference {
    use shadow_server::exec::ExecOutcome;

    pub fn run_job(command_file: &[u8], resolve: &dyn Fn(&str) -> Option<Vec<u8>>) -> ExecOutcome {
        let mut out = ExecOutcome::default();
        let text = String::from_utf8_lossy(command_file);
        for (lineno, raw_line) in text.lines().enumerate() {
            let line = raw_line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let cmd = parts.next().expect("non-empty line");
            let args: Vec<&str> = parts.collect();
            if let Err(msg) = run_command(cmd, &args, resolve, &mut out) {
                out.errors
                    .extend_from_slice(format!("line {}: {}: {msg}\n", lineno + 1, cmd).as_bytes());
                out.exit_code = 1;
                break;
            }
        }
        out
    }

    fn read_file(
        name: &str,
        resolve: &dyn Fn(&str) -> Option<Vec<u8>>,
        out: &mut ExecOutcome,
    ) -> Result<Vec<u8>, String> {
        let content = resolve(name).ok_or_else(|| format!("{name}: no such shadow file"))?;
        out.cpu_bytes += content.len() as u64;
        Ok(content)
    }

    fn emit(out: &mut ExecOutcome, bytes: &[u8]) {
        out.cpu_bytes += bytes.len() as u64;
        out.output.extend_from_slice(bytes);
    }

    fn run_command(
        cmd: &str,
        args: &[&str],
        resolve: &dyn Fn(&str) -> Option<Vec<u8>>,
        out: &mut ExecOutcome,
    ) -> Result<(), String> {
        match cmd {
            "echo" => {
                let line = args.join(" ") + "\n";
                emit(out, line.as_bytes());
                Ok(())
            }
            "cat" => {
                if args.is_empty() {
                    return Err("missing operand".into());
                }
                for name in args {
                    let content = read_file(name, resolve, out)?;
                    emit(out, &content);
                }
                Ok(())
            }
            "wc" => {
                if args.is_empty() {
                    return Err("missing operand".into());
                }
                for name in args {
                    let content = read_file(name, resolve, out)?;
                    let lines = content.iter().filter(|&&b| b == b'\n').count();
                    let words = content
                        .split(|b| b.is_ascii_whitespace())
                        .filter(|w| !w.is_empty())
                        .count();
                    let line = format!("{lines} {words} {} {name}\n", content.len());
                    emit(out, line.as_bytes());
                }
                Ok(())
            }
            "grep" => {
                let (pattern, files) = args.split_first().ok_or("missing pattern")?;
                if files.is_empty() {
                    return Err("missing operand".into());
                }
                for name in files {
                    let content = read_file(name, resolve, out)?;
                    for line in content.split(|&b| b == b'\n') {
                        if !line.is_empty()
                            && line
                                .windows(pattern.len().max(1))
                                .any(|w| w == pattern.as_bytes())
                        {
                            let mut l = line.to_vec();
                            l.push(b'\n');
                            emit(out, &l);
                        }
                    }
                }
                Ok(())
            }
            "sort" => {
                if args.is_empty() {
                    return Err("missing operand".into());
                }
                let mut lines: Vec<Vec<u8>> = Vec::new();
                for name in args {
                    let content = read_file(name, resolve, out)?;
                    for line in content.split(|&b| b == b'\n') {
                        if !line.is_empty() {
                            lines.push(line.to_vec());
                        }
                    }
                }
                lines.sort();
                for l in lines {
                    emit(out, &l);
                    emit(out, b"\n");
                }
                Ok(())
            }
            "head" | "tail" => {
                let (&n_str, files) = args.split_first().ok_or("missing line count")?;
                let n: usize = n_str.parse().map_err(|_| format!("bad count {n_str:?}"))?;
                let name = files.first().ok_or("missing operand")?;
                let content = read_file(name, resolve, out)?;
                let lines: Vec<&[u8]> = content
                    .split(|&b| b == b'\n')
                    .filter(|l| !l.is_empty())
                    .collect();
                let picked: Vec<&[u8]> = if cmd == "head" {
                    lines.iter().take(n).copied().collect()
                } else {
                    lines.iter().rev().take(n).rev().copied().collect()
                };
                for l in picked {
                    emit(out, l);
                    emit(out, b"\n");
                }
                Ok(())
            }
            "sum" => {
                if args.is_empty() {
                    return Err("missing operand".into());
                }
                let mut total = 0f64;
                let mut count = 0u64;
                for name in args {
                    let content = read_file(name, resolve, out)?;
                    for token in String::from_utf8_lossy(&content).split_whitespace() {
                        if let Ok(v) = token.parse::<f64>() {
                            total += v;
                            count += 1;
                        }
                    }
                }
                let line = format!("sum {total} of {count} values\n");
                emit(out, line.as_bytes());
                Ok(())
            }
            "uniq" => {
                let name = args.first().ok_or("missing operand")?;
                let content = read_file(name, resolve, out)?;
                let mut previous: Option<&[u8]> = None;
                for line in content.split(|&b| b == b'\n') {
                    if line.is_empty() {
                        continue;
                    }
                    if previous != Some(line) {
                        emit(out, line);
                        emit(out, b"\n");
                    }
                    previous = Some(line);
                }
                Ok(())
            }
            "nl" => {
                let name = args.first().ok_or("missing operand")?;
                let content = read_file(name, resolve, out)?;
                for (i, line) in content
                    .split(|&b| b == b'\n')
                    .filter(|l| !l.is_empty())
                    .enumerate()
                {
                    let prefix = format!("{:>6}  ", i + 1);
                    emit(out, prefix.as_bytes());
                    emit(out, line);
                    emit(out, b"\n");
                }
                Ok(())
            }
            "stats" => {
                if args.is_empty() {
                    return Err("missing operand".into());
                }
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                let mut total = 0f64;
                let mut count = 0u64;
                for name in args {
                    let content = read_file(name, resolve, out)?;
                    for token in String::from_utf8_lossy(&content).split_whitespace() {
                        if let Ok(v) = token.parse::<f64>() {
                            min = min.min(v);
                            max = max.max(v);
                            total += v;
                            count += 1;
                        }
                    }
                }
                let line = if count == 0 {
                    "stats: no numeric values\n".to_string()
                } else {
                    format!(
                        "min {min} max {max} mean {} n {count}\n",
                        total / count as f64
                    )
                };
                emit(out, line.as_bytes());
                Ok(())
            }
            "gen" => {
                let (&n_str, rest) = args.split_first().ok_or("missing line count")?;
                let n: usize = n_str.parse().map_err(|_| format!("bad count {n_str:?}"))?;
                if n > 1_000_000 {
                    return Err(format!("line count {n} exceeds the 1000000 limit"));
                }
                let prefix = rest.first().copied().unwrap_or("line");
                for i in 0..n {
                    let line = format!("{prefix} {i:08}\n");
                    emit(out, line.as_bytes());
                }
                Ok(())
            }
            "compute" => {
                let n_str = args.first().ok_or("missing byte count")?;
                let n: u64 = n_str.parse().map_err(|_| format!("bad count {n_str:?}"))?;
                out.cpu_bytes += n;
                Ok(())
            }
            other => Err(format!("unknown command {other:?}")),
        }
    }
}

/// Bytes that the scans must tell apart: the five ASCII whitespace
/// bytes, `\x0b` (whitespace to `char::is_whitespace` but not to `wc`),
/// bytes with the top bit set, and a few word bytes so that lines repeat.
const TRICKY: &[u8] = b"\n \t\x0c\r\x0b\x80\xff\xa0\x8aab1.";

fn content() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        4 => prop::sample::select(TRICKY.to_vec()),
        1 => any::<u8>(),
    ];
    prop::collection::vec(byte, 0..97)
}

/// Command lines over the data files `/a` and `/b`; `/gone` resolves to
/// nothing. `N` becomes a small count.
const COMMANDS: &[&str] = &[
    "wc /a",
    "wc /a /b",
    "wc /gone",
    "cat /a /b",
    "cat /b /gone",
    "sort /a",
    "sort /a /b",
    "sort /b /a /a",
    "sort /a /gone",
    "grep a /a",
    "grep 1 /a /b",
    "grep ab /b",
    "head N /a",
    "tail N /a",
    "head N /b",
    "tail N /b",
    "uniq /a",
    "uniq /b",
    "nl /a",
    "nl /b",
    "sum /a /b",
    "stats /a /b",
    "gen N row",
    "echo N done",
    "compute N",
];

fn command() -> impl Strategy<Value = String> {
    (0..COMMANDS.len(), 0usize..12).prop_map(|(i, n)| COMMANDS[i].replace('N', &n.to_string()))
}

fn files(a: Vec<u8>, b: Vec<u8>) -> HashMap<String, Vec<u8>> {
    HashMap::from([("/a".to_string(), a), ("/b".to_string(), b)])
}

/// Runs `job` through the interpreter, which borrows the files in place,
/// and through the reference, which gets a copy of each.
fn both(job: &[u8], files: &HashMap<String, Vec<u8>>) -> (ExecOutcome, ExecOutcome) {
    let lent = run_job(job, &|name| files.get(name).map(Vec::as_slice));
    let copied = reference::run_job(job, &|name| files.get(name).cloned());
    (lent, copied)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn each_command_matches_the_reference(
        line in command(),
        a in content(),
        b in content(),
    ) {
        let job = line + "\n";
        let (lent, copied) = both(job.as_bytes(), &files(a, b));
        prop_assert_eq!(lent, copied);
    }

    #[test]
    fn multi_command_jobs_match_the_reference(
        lines in prop::collection::vec(command(), 1..5),
        a in content(),
        b in content(),
    ) {
        let job = lines.join("\n");
        let (lent, copied) = both(job.as_bytes(), &files(a, b));
        prop_assert_eq!(lent, copied);
    }

    #[test]
    fn arbitrary_job_files_match_the_reference(
        job in prop::collection::vec(any::<u8>(), 0..64),
        a in content(),
    ) {
        let (lent, copied) = both(&job, &files(a.clone(), a));
        prop_assert_eq!(lent, copied);
    }
}

#[test]
fn wc_matches_the_reference_at_every_length() {
    // Every length mod 8 and every offset of a word boundary, with
    // leading and trailing whitespace and with or without a final `\n`.
    let patterns: [&[u8]; 6] = [
        b"ab cd\n",
        b" \tx\x0by\r\n\x0c",
        b"w\x80\xff  ",
        b"\n\n a",
        b"long-word-without-space",
        b"\x0b\x0b\x0b ",
    ];
    for pattern in patterns {
        for len in 0..64 {
            for skip in 0..pattern.len() {
                let bytes: Vec<u8> = pattern
                    .iter()
                    .copied()
                    .cycle()
                    .skip(skip)
                    .take(len)
                    .collect();
                let (lent, copied) = both(b"wc /a /b\nsort /a /b\n", &files(bytes.clone(), bytes));
                assert_eq!(lent, copied, "pattern {pattern:?}, len {len}, skip {skip}");
            }
        }
    }
}
