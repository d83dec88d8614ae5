//! The batch executor — this repository's stand-in for the supercomputer.
//!
//! The paper's server "initiates execution at the supercomputer"; its
//! prototype used "a remote UNIX system" as the supercomputer. Here a job
//! is a **job command file** (§6.2: "one or more lines where each line
//! specifies a command along with its arguments") interpreted against the
//! shadow cache. The command set is deliberately UNIX-flavoured — the
//! workloads scientists ran were filters over large data files — and every
//! command reports how many bytes it processed, which drives the simulated
//! runtime.
//!
//! | command | effect |
//! |---|---|
//! | `# …` / blank | ignored |
//! | `echo TEXT…` | prints its arguments |
//! | `cat FILE…` | concatenates files |
//! | `wc FILE…` | lines/words/bytes per file |
//! | `grep PAT FILE…` | lines containing `PAT` |
//! | `sort FILE…` | sorted lines of all inputs |
//! | `head N FILE` / `tail N FILE` | first/last `N` lines |
//! | `sum FILE…` | sum of all numeric tokens |
//! | `uniq FILE` | collapse adjacent duplicate lines |
//! | `nl FILE` | number lines |
//! | `stats FILE…` | min/max/mean of all numeric tokens |
//! | `gen N PREFIX` | emits `N` generated lines (big-output jobs) |
//! | `compute BYTES` | pure simulated CPU burn |
//!
//! Data files are read in place: the resolver hands out whatever holds
//! the bytes (the server passes its cache entries' shared `Bytes`), and
//! every line a command reads or prints is a slice of them, so no
//! command copies its input or allocates per line. The line splits and
//! `wc`'s line and word counts run eight bytes at a time through
//! [`shadow_diff::scan`].
//!
//! A missing file or malformed command stops the job with exit code 1 —
//! the error text goes to the error stream, exactly what the `submit`
//! command's error-file option captures.

use std::fmt;

use shadow_diff::scan::{count_lines_and_words, count_newlines, split_lines};

/// The result of interpreting one job command file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ExecOutcome {
    /// Standard output.
    pub output: Vec<u8>,
    /// Error output.
    pub errors: Vec<u8>,
    /// Bytes "processed" — input read plus output written plus explicit
    /// `compute` burn; the server converts this to simulated runtime.
    pub cpu_bytes: u64,
    /// 0 on success, 1 on the first failed command.
    pub exit_code: i32,
}

/// Interprets `command_file`, resolving data-file names through `resolve`
/// (the server wires this to the shadow cache + mapping directory).
///
/// The resolver returns anything that holds the file's bytes, so a
/// caller can lend its own buffers instead of copying them.
///
/// # Example
///
/// ```
/// use shadow_server::exec::run_job;
///
/// let outcome = run_job(b"echo hello world\n", &|_name| None::<&[u8]>);
/// assert_eq!(outcome.output, b"hello world\n");
/// assert_eq!(outcome.exit_code, 0);
///
/// let data = b"one two\nthree\n".to_vec();
/// let outcome = run_job(b"wc /data\n", &|name| (name == "/data").then_some(&data));
/// assert_eq!(outcome.output, b"2 3 14 /data\n");
/// ```
pub fn run_job<D: AsRef<[u8]>>(
    command_file: &[u8],
    resolve: &dyn Fn(&str) -> Option<D>,
) -> ExecOutcome {
    let mut out = ExecOutcome::default();
    let text = String::from_utf8_lossy(command_file);
    for (lineno, raw_line) in text.lines().enumerate() {
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else {
            continue;
        };
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

fn read_file<D: AsRef<[u8]>>(
    name: &str,
    resolve: &dyn Fn(&str) -> Option<D>,
    out: &mut ExecOutcome,
) -> Result<D, String> {
    let content = resolve(name).ok_or_else(|| format!("{name}: no such shadow file"))?;
    out.cpu_bytes += content.as_ref().len() as u64;
    Ok(content)
}

fn emit(out: &mut ExecOutcome, bytes: &[u8]) {
    out.cpu_bytes += bytes.len() as u64;
    out.output.extend_from_slice(bytes);
}

/// [`emit`]s formatted text, written into the output with no `String`
/// in between.
fn emit_fmt(out: &mut ExecOutcome, args: fmt::Arguments<'_>) {
    struct Emit<'a>(&'a mut ExecOutcome);
    impl fmt::Write for Emit<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            emit(self.0, s.as_bytes());
            Ok(())
        }
    }
    // Writing into a `Vec` cannot fail.
    let _ = fmt::Write::write_fmt(&mut Emit(out), args);
}

/// The non-empty lines of `content`, borrowed, without their `\n`.
fn lines(content: &[u8]) -> impl Iterator<Item = &[u8]> {
    split_lines(content).filter(|line| !line.is_empty())
}

/// [`emit`]s `line` and its `\n`.
fn emit_line(out: &mut ExecOutcome, line: &[u8]) {
    emit(out, line);
    emit(out, b"\n");
}

fn run_command<D: AsRef<[u8]>>(
    cmd: &str,
    args: &[&str],
    resolve: &dyn Fn(&str) -> Option<D>,
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
                emit(out, content.as_ref());
            }
            Ok(())
        }
        "wc" => {
            if args.is_empty() {
                return Err("missing operand".into());
            }
            for name in args {
                let content = read_file(name, resolve, out)?;
                let content = content.as_ref();
                let (lines, words) = count_lines_and_words(content);
                let bytes = content.len();
                emit_fmt(out, format_args!("{lines} {words} {bytes} {name}\n"));
            }
            Ok(())
        }
        "grep" => {
            let (pattern, files) = args.split_first().ok_or("missing pattern")?;
            if files.is_empty() {
                return Err("missing operand".into());
            }
            let pattern = pattern.as_bytes();
            for name in files {
                let content = read_file(name, resolve, out)?;
                for line in lines(content.as_ref()) {
                    if line.windows(pattern.len().max(1)).any(|w| w == pattern) {
                        emit_line(out, line);
                    }
                }
            }
            Ok(())
        }
        "sort" => {
            if args.is_empty() {
                return Err("missing operand".into());
            }
            let contents = args
                .iter()
                .map(|name| read_file(name, resolve, out))
                .collect::<Result<Vec<D>, String>>()?;
            // Every file holds at most one line more than it has `\n`s.
            let most = contents
                .iter()
                .map(|c| count_newlines(c.as_ref()) + 1)
                .sum();
            let mut sorted: Vec<&[u8]> = Vec::with_capacity(most);
            for content in &contents {
                sorted.extend(lines(content.as_ref()));
            }
            // Equal lines are equal bytes, so an unstable sort prints
            // what a stable one would.
            sorted.sort_unstable();
            out.output
                .reserve(sorted.iter().map(|line| line.len() + 1).sum());
            for line in sorted {
                emit_line(out, line);
            }
            Ok(())
        }
        "head" | "tail" => {
            let (&n_str, files) = args.split_first().ok_or("missing line count")?;
            let n: usize = n_str.parse().map_err(|_| format!("bad count {n_str:?}"))?;
            let name = files.first().ok_or("missing operand")?;
            let content = read_file(name, resolve, out)?;
            let content = content.as_ref();
            let skip = if cmd == "head" {
                0
            } else {
                lines(content).count().saturating_sub(n)
            };
            for line in lines(content).skip(skip).take(n) {
                emit_line(out, line);
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
                for token in String::from_utf8_lossy(content.as_ref()).split_whitespace() {
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
            for line in lines(content.as_ref()) {
                if previous != Some(line) {
                    emit_line(out, line);
                }
                previous = Some(line);
            }
            Ok(())
        }
        "nl" => {
            let name = args.first().ok_or("missing operand")?;
            let content = read_file(name, resolve, out)?;
            for (i, line) in lines(content.as_ref()).enumerate() {
                emit_fmt(out, format_args!("{:>6}  ", i + 1));
                emit_line(out, line);
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
                for token in String::from_utf8_lossy(content.as_ref()).split_whitespace() {
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
                emit_fmt(out, format_args!("{prefix} {i:08}\n"));
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn files(pairs: &[(&str, &str)]) -> impl Fn(&str) -> Option<Vec<u8>> {
        let map: HashMap<String, Vec<u8>> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.as_bytes().to_vec()))
            .collect();
        move |name| map.get(name).cloned()
    }

    #[test]
    fn echo_and_comments() {
        let o = run_job(b"# setup\n\necho a b  c\n", &|_| None::<&[u8]>);
        assert_eq!(o.output, b"a b c\n");
        assert_eq!(o.exit_code, 0);
        assert!(o.errors.is_empty());
    }

    #[test]
    fn cat_concatenates() {
        let r = files(&[("/a", "1\n"), ("/b", "2\n")]);
        let o = run_job(b"cat /a /b\n", &r);
        assert_eq!(o.output, b"1\n2\n");
        assert!(o.cpu_bytes >= 4);
    }

    #[test]
    fn wc_counts() {
        let r = files(&[("/f", "one two\nthree\n")]);
        let o = run_job(b"wc /f\n", &r);
        assert_eq!(o.output, b"2 3 14 /f\n");
    }

    #[test]
    fn grep_filters() {
        let r = files(&[("/f", "apple\nbanana\npineapple\n")]);
        let o = run_job(b"grep apple /f\n", &r);
        assert_eq!(o.output, b"apple\npineapple\n");
    }

    #[test]
    fn sort_merges_inputs() {
        let r = files(&[("/a", "c\na\n"), ("/b", "b\n")]);
        let o = run_job(b"sort /a /b\n", &r);
        assert_eq!(o.output, b"a\nb\nc\n");
    }

    #[test]
    fn head_and_tail() {
        let r = files(&[("/f", "1\n2\n3\n4\n5\n")]);
        assert_eq!(run_job(b"head 2 /f\n", &r).output, b"1\n2\n");
        assert_eq!(run_job(b"tail 2 /f\n", &r).output, b"4\n5\n");
    }

    #[test]
    fn sum_totals_numbers() {
        let r = files(&[("/f", "1.5 2\nskip 3\n")]);
        let o = run_job(b"sum /f\n", &r);
        assert_eq!(o.output, b"sum 6.5 of 3 values\n");
    }

    #[test]
    fn uniq_collapses_adjacent_duplicates() {
        let r = files(&[("/f", "a\na\nb\na\na\n")]);
        let o = run_job(b"uniq /f\n", &r);
        assert_eq!(o.output, b"a\nb\na\n");
    }

    #[test]
    fn nl_numbers_lines() {
        let r = files(&[("/f", "x\ny\n")]);
        let o = run_job(b"nl /f\n", &r);
        assert_eq!(o.output, b"     1  x\n     2  y\n");
    }

    #[test]
    fn stats_reports_min_max_mean() {
        let r = files(&[("/f", "1 2\n3\n")]);
        let o = run_job(b"stats /f\n", &r);
        assert_eq!(o.output, b"min 1 max 3 mean 2 n 3\n");
        let o = run_job(b"stats /g\n", &files(&[("/g", "no numbers here\n")]));
        assert_eq!(o.output, b"stats: no numeric values\n");
    }

    #[test]
    fn new_commands_require_operands() {
        for job in ["uniq\n", "nl\n", "stats\n"] {
            assert_eq!(
                run_job(job.as_bytes(), &|_| None::<&[u8]>).exit_code,
                1,
                "{job}"
            );
        }
    }

    #[test]
    fn gen_produces_big_output() {
        let o = run_job(b"gen 3 result\n", &|_| None::<&[u8]>);
        assert_eq!(
            o.output,
            b"result 00000000\nresult 00000001\nresult 00000002\n"
        );
    }

    #[test]
    fn compute_burns_cpu_without_output() {
        let o = run_job(b"compute 1000000\n", &|_| None::<&[u8]>);
        assert!(o.output.is_empty());
        assert_eq!(o.cpu_bytes, 1_000_000);
    }

    #[test]
    fn multi_line_jobs_run_in_order() {
        let r = files(&[("/f", "x\n")]);
        let o = run_job(b"echo start\ncat /f\necho end\n", &r);
        assert_eq!(o.output, b"start\nx\nend\n");
    }

    #[test]
    fn missing_file_fails_with_error() {
        let o = run_job(b"cat /missing\necho unreachable\n", &|_| None::<&[u8]>);
        assert_eq!(o.exit_code, 1);
        assert!(String::from_utf8_lossy(&o.errors).contains("no such shadow file"));
        assert!(o.output.is_empty());
    }

    #[test]
    fn unknown_command_fails() {
        let o = run_job(b"frobnicate /f\n", &|_| None::<&[u8]>);
        assert_eq!(o.exit_code, 1);
        assert!(String::from_utf8_lossy(&o.errors).contains("unknown command"));
    }

    #[test]
    fn malformed_counts_fail() {
        assert_eq!(run_job(b"head x /f\n", &|_| None::<&[u8]>).exit_code, 1);
        assert_eq!(run_job(b"gen nope\n", &|_| None::<&[u8]>).exit_code, 1);
        assert_eq!(run_job(b"compute many\n", &|_| None::<&[u8]>).exit_code, 1);
    }

    #[test]
    fn missing_operands_fail() {
        for job in [
            "cat\n",
            "wc\n",
            "grep\n",
            "grep pat\n",
            "sort\n",
            "sum\n",
            "head 3\n",
        ] {
            let o = run_job(job.as_bytes(), &|_| None::<&[u8]>);
            assert_eq!(o.exit_code, 1, "job {job:?}");
        }
    }
}
