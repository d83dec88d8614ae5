//! The four workloads: what each deploys, the data file it edits from
//! the seed, the job it submits, and the output the bench expects back.
//!
//! | workload | deployment | data per cycle | job |
//! |---|---|---|---|
//! | `text_edit` | pipes, diskless | 200 KB text, 2% of it rewritten | `wc` |
//! | `binary_splice` | pipes, diskless | 4 MiB binary, 1 KiB overwritten | `echo ok` |
//! | `tcp_idle_peer` | TCP loopback + one parked peer | 10 KB text, 1% rewritten | `wc` |
//! | `durable_report` | pipes, journaled store | 100 KB text, 2% rewritten | `sort`, output shadowed |

use std::time::Duration;

use shadow::{generate_file, EditModel, FileSpec};

/// Canonical name of the data file every job reads.
pub const DATA_NAME: &str = "ws:/data";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §8.1 cycle: line diff, apply, `wc`, and the poll loop.
    TextEdit,
    /// A 1 KiB splice into a 4 MiB binary: the chunk codec and digests.
    BinarySplice,
    /// Small text over real sockets with an idle second session: the
    /// TCP receive edge.
    TcpIdlePeer,
    /// Reverse-shadowed output and a journaled store seeded with a
    /// 2,000-record journal: output deltas and store writes.
    DurableReport,
}

/// How the client reaches the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process duplex pipes (`Deployment::pipes`).
    Pipes,
    /// TCP on loopback (`Deployment::tcp` + `connect_tcp`).
    Tcp,
}

/// How each cycle derives the next version of the data file.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Data {
    /// `generate_file` text; each cycle rewrites `fraction` of the bytes.
    Text { size: usize, fraction: f64 },
    /// Seeded random bytes; each cycle overwrites `splice` bytes at a
    /// seeded offset.
    Binary { size: usize, splice: usize },
}

impl Workload {
    /// Every workload, in the order the one-command run executes them.
    pub const ALL: [Workload; 4] = [
        Workload::TextEdit,
        Workload::BinarySplice,
        Workload::TcpIdlePeer,
        Workload::DurableReport,
    ];

    /// The name used on the command line and in every metric line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TextEdit => "text_edit",
            Workload::BinarySplice => "binary_splice",
            Workload::TcpIdlePeer => "tcp_idle_peer",
            Workload::DurableReport => "durable_report",
        }
    }

    /// Looks a workload up by [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The transport the workload deploys over.
    pub fn transport(self) -> Transport {
        match self {
            Workload::TcpIdlePeer => Transport::Tcp,
            _ => Transport::Pipes,
        }
    }

    /// The span think times are drawn from. Over pipes the server sleeps
    /// 1 ms after every poll round that finds no work; back to back, the
    /// bench's loop phase-locks with that sleep at a phase set by how
    /// long the next input takes to build, and separate runs settle on
    /// different numbers of sleeps per cycle. A pause drawn over 2 ms
    /// lands each submit at a uniformly random phase. Over TCP the
    /// server's idle round is two 10 ms read timeouts, far longer than
    /// the bench's own jitter, so the loop locks the same way in every
    /// run and gets no pause.
    pub fn think_span(self) -> Duration {
        match self.transport() {
            Transport::Pipes => Duration::from_millis(2),
            Transport::Tcp => Duration::ZERO,
        }
    }

    /// Whether the server journals to a durable store.
    pub fn durable(self) -> bool {
        self == Workload::DurableReport
    }

    /// Whether jobs ask the server to shadow their output.
    pub fn shadow_output(self) -> bool {
        self == Workload::DurableReport
    }

    /// The job command file submitted every cycle.
    pub fn job(self) -> &'static [u8] {
        match self {
            Workload::TextEdit | Workload::TcpIdlePeer => b"wc ws:/data\n",
            // The data file still travels: it is a declared input.
            Workload::BinarySplice => b"echo ok\n",
            Workload::DurableReport => b"sort ws:/data\n",
        }
    }

    fn data(self) -> Data {
        match self {
            Workload::TextEdit => Data::Text {
                size: 200_000,
                fraction: 0.02,
            },
            Workload::BinarySplice => Data::Binary {
                size: 4 << 20,
                splice: 1024,
            },
            Workload::TcpIdlePeer => Data::Text {
                size: 10_000,
                fraction: 0.01,
            },
            Workload::DurableReport => Data::Text {
                size: 100_000,
                fraction: 0.02,
            },
        }
    }

    /// The output the job must produce for `data`, computed by the bench
    /// itself rather than by the service's interpreter.
    pub fn expected_output(self, data: &[u8]) -> Vec<u8> {
        match self {
            Workload::TextEdit | Workload::TcpIdlePeer => wc(data),
            Workload::BinarySplice => b"ok\n".to_vec(),
            Workload::DurableReport => sorted_lines(data),
        }
    }
}

/// `wc ws:/data`: lines, words and bytes, then the file name.
pub fn wc(data: &[u8]) -> Vec<u8> {
    let lines = data.iter().filter(|&&b| b == b'\n').count();
    let words = data
        .split(u8::is_ascii_whitespace)
        .filter(|w| !w.is_empty())
        .count();
    format!("{lines} {words} {} {DATA_NAME}\n", data.len()).into_bytes()
}

/// `sort ws:/data`: the non-empty lines in byte order, each terminated.
fn sorted_lines(data: &[u8]) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = data
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();
    lines.sort_unstable();
    let mut out = Vec::with_capacity(data.len() + 1);
    for line in lines {
        out.extend_from_slice(line);
        out.push(b'\n');
    }
    out
}

/// The seeded sequence of data-file versions a workload submits.
/// Version 0 is the cold cycle's full transfer. The same seed gives the
/// same sequence; cloning an `Inputs` replays the rest of it.
///
/// Text version `i` is version 0 with the `i`-th seeded edit applied, so
/// consecutive versions differ in two places (the last edit reverts, the
/// next one lands). Every cycle then does the same work from the first
/// to the last: accumulated edits would grow the file over a run, since
/// rewritten lines are longer than generated ones and some edits insert.
/// Binary version `i` is version `i - 1` with one more splice.
#[derive(Debug, Clone)]
pub struct Inputs {
    data: Data,
    seed: u64,
    index: u64,
    /// Version 0 of a text file (empty for binary data).
    origin: Vec<u8>,
    current: Vec<u8>,
}

impl Inputs {
    /// Version 0 of `workload`'s data file for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let data = workload.data();
        let (origin, current) = match data {
            Data::Text { size, .. } => {
                let text = generate_file(&FileSpec::new(size, seed));
                (text.clone(), text)
            }
            Data::Binary { size, .. } => {
                let mut blob = vec![0; size];
                fill(&mut Rng::new(seed), &mut blob);
                (Vec::new(), blob)
            }
        };
        Inputs {
            data,
            seed,
            index: 0,
            origin,
            current,
        }
    }

    /// The index of the current version.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The current version's content.
    pub fn current(&self) -> &[u8] {
        &self.current
    }

    /// The scientist's pause before submitting the current version:
    /// seeded, uniform over `span`.
    pub fn think_time(&self, span: Duration) -> Duration {
        let mut rng = Rng::new(self.seed ^ self.index.rotate_left(32) ^ 0x7417_7417_7417_7417);
        let span_us = u64::try_from(span.as_micros()).unwrap_or(u64::MAX).max(1);
        Duration::from_micros(rng.next() % span_us)
    }

    /// Moves to the next version.
    pub fn advance(&mut self) {
        self.index += 1;
        let step_seed = self.seed.wrapping_add(self.index);
        match self.data {
            Data::Text { fraction, .. } => {
                self.current = EditModel::fraction(fraction, step_seed).apply(&self.origin);
            }
            Data::Binary { size, splice } => {
                let mut rng = Rng::new(step_seed ^ 0x5eed_5eed_5eed_5eed);
                let offset = (rng.next() % (size - splice + 1) as u64) as usize;
                fill(&mut rng, &mut self.current[offset..offset + splice]);
            }
        }
    }
}

/// splitmix64: a small deterministic generator for the binary data.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn fill(rng: &mut Rng, out: &mut [u8]) {
    for chunk in out.chunks_mut(8) {
        let word = rng.next().to_le_bytes();
        chunk.copy_from_slice(&word[..chunk.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn expected_outputs_match_the_interpreter() {
        let data = generate_file(&FileSpec::new(5_000, 3));
        let resolve = |name: &str| (name == DATA_NAME).then(|| data.clone());
        for w in Workload::ALL {
            let outcome = shadow::exec::run_job(w.job(), &resolve);
            assert_eq!(outcome.exit_code, 0, "{}", w.name());
            assert_eq!(outcome.output, w.expected_output(&data), "{}", w.name());
        }
    }

    #[test]
    fn text_versions_stay_one_edit_from_the_origin() {
        let mut inputs = Inputs::new(Workload::DurableReport, 5);
        let origin = inputs.current().len();
        for _ in 0..300 {
            inputs.advance();
            let len = inputs.current().len();
            // One edit rewrites or inserts about 2% of the bytes.
            assert!(
                len > origin && len < origin + origin / 20,
                "{len} vs {origin}"
            );
        }
    }

    #[test]
    fn binary_versions_differ_in_one_splice() {
        let mut inputs = Inputs::new(Workload::BinarySplice, 9);
        let before = inputs.current().to_vec();
        inputs.advance();
        let changed = before
            .iter()
            .zip(inputs.current())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(before.len(), inputs.current().len());
        assert!((1000..=1024).contains(&changed), "{changed} bytes changed");
    }
}
