//! One workload run: timed set-ups, the untraced pass for the end-to-end
//! metrics, and — when tracing — the traced pass and the layer replay
//! for the per-layer metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use shadow::pipe::PipeEnd;
use shadow::tcp::TcpFramed;
use shadow::{FrameTransport, Json, NodeReport};

use crate::harness::{self, Bounds, CycleError, Deployed, Link, Sample, Tracer};
use crate::replay::{self, Layers};
use crate::stats::{self, median, percentile, tail_percentile, Better, Bound, Spec};
use crate::workload::{Inputs, Transport, Workload};
use crate::{journal, work_dir, Error, ScratchDir};

/// Warm-up cycles after the cold one; both count toward set-up.
pub const WARMUPS: usize = 3;

/// The tail percentile of cycle times and of each traced stage. `p99`
/// would need 1,000 cycles per pass (ten beyond it); `tcp_idle_peer`
/// completes about 300 in a 20 s pass, so every workload reports `p95`,
/// which needs 200.
pub const TAIL: u32 = 95;

/// The end-to-end metrics, each with the bound by which it may worsen
/// before a change counts as a regression, set above the spread measured
/// across seeds and between sets of runs (see `README.md`). Failures are
/// not a metric: they are the run's `failed` count, and any increase is
/// a regression.
pub const END_TO_END: [Spec; 6] = [
    Spec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound {
            share: 0.25,
            absolute: 0.05,
        },
    },
    Spec {
        name: "cycle_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::share(0.25),
    },
    Spec {
        name: "cycle_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::share(0.25),
    },
    Spec {
        name: "cycles_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::share(0.25),
    },
    Spec {
        name: "wire_bytes_per_cycle",
        unit: "bytes",
        better: Better::Lower,
        bound: Bound::share(0.05),
    },
    Spec {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: Bound::share(0.25),
    },
];

/// The six client-side stages of a traced cycle, in order; consecutive
/// stamps in [`Bounds`] delimit them, so they add up to the cycle.
pub const STAGES: [&str; 6] = [
    "client.edit_us",
    "client.submit_us",
    "runtime.pull_wait_us",
    "version.delta_build_us",
    "server.turnaround_us",
    "client.output_us",
];

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long each measured pass runs …
    pub duration: Duration,
    /// … and the fewest cycles it runs regardless.
    pub min_cycles: usize,
    /// Set-ups to time (the median is reported; the last is measured).
    pub setups: usize,
    /// Whether to follow the untraced pass with the traced pass and the
    /// layer replay.
    pub trace: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `cycle_p50_ms`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The workload run.
    pub workload: Workload,
    /// Measured cycles attempted (both passes when tracing).
    pub attempted: usize,
    /// Cycles that errored, timed out, or returned the wrong output.
    pub failed: usize,
    /// The first failure, if any.
    pub failure: Option<String>,
    /// Cycles completed in the untraced pass.
    pub cycles: usize,
    /// The end-to-end metrics, from set-up and the untraced pass.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (empty unless tracing).
    pub per_layer: Vec<Metric>,
    /// The traced pass's cycles, each with its stage boundaries.
    pub traced: Vec<Sample>,
}

impl RunResult {
    /// Whether every cycle completed with the expected output.
    pub fn correct(&self) -> bool {
        self.failure.is_none()
    }

    /// Looks a metric up in either set.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Writes the traced pass's raw spans — `{cycle, stage, start_ns,
    /// end_ns}`, times from the first traced cycle's start — to
    /// `spans_<workload>.json` in the work dir.
    ///
    /// # Errors
    ///
    /// The file could not be written.
    pub fn write_spans(&self) -> std::io::Result<PathBuf> {
        let traced: Vec<Bounds> = self.traced.iter().filter_map(|s| s.bounds).collect();
        let origin = traced.first().map(|b| b[0]);
        let mut rows = Vec::with_capacity(traced.len() * STAGES.len());
        for (cycle, bounds) in traced.iter().enumerate() {
            for (stage, name) in STAGES.iter().enumerate() {
                let at = |i: usize| origin.map_or(0, |o| nanos(bounds[i] - o));
                rows.push(
                    Json::object()
                        .with("cycle", cycle)
                        .with("stage", *name)
                        .with("start_ns", at(stage))
                        .with("end_ns", at(stage + 1)),
                );
            }
        }
        std::fs::create_dir_all(work_dir())?;
        let path = work_dir().join(format!("spans_{}.json", self.workload.name()));
        std::fs::write(&path, Json::Arr(rows).render())?;
        Ok(path)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one workload.
///
/// # Errors
///
/// The deployment could not be set up or torn down, or the layer
/// replay failed; failed measured cycles are counted, not returned.
pub fn run(config: &RunConfig) -> Result<RunResult, Error> {
    match config.workload.transport() {
        Transport::Pipes => run_over::<PipeEnd>(config),
        Transport::Tcp => run_over::<TcpFramed>(config),
    }
}

/// A measured pass: cycles until the duration has passed and at least
/// the minimum count has completed, or until the first failure.
struct Pass {
    samples: Vec<Sample>,
    failure: Option<CycleError>,
    /// Peak RSS once the minimum cycle count had completed.
    rss_mb: Option<f64>,
}

impl Pass {
    fn attempted(&self) -> usize {
        self.samples.len() + usize::from(self.failure.is_some())
    }

    /// Cycle times in ms, ascending.
    fn sorted_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.elapsed.as_secs_f64() * 1e3)
            .collect();
        stats::sort(&mut ms);
        ms
    }
}

fn measure<T: FrameTransport>(
    deployed: &mut Deployed<T>,
    inputs: &mut Inputs,
    config: &RunConfig,
    tracer: Option<&Tracer>,
) -> Pass {
    let workload = config.workload;
    let mut pass = Pass {
        samples: Vec::new(),
        failure: None,
        rss_mb: None,
    };
    let start = Instant::now();
    while pass.samples.len() < config.min_cycles || start.elapsed() < config.duration {
        inputs.advance();
        let content = inputs.current().to_vec();
        std::thread::sleep(inputs.think_time(workload.think_span()));
        let expected = || workload.expected_output(inputs.current());
        match deployed.cycle(content, expected, tracer) {
            Ok(sample) => pass.samples.push(sample),
            Err(failure) => {
                pass.failure = Some(failure);
                break;
            }
        }
        if pass.samples.len() == config.min_cycles {
            pass.rss_mb = peak_rss_mb().ok();
        }
    }
    pass
}

/// A live deployment after its set-up, with the store it journals to.
struct Setup<T: FrameTransport> {
    deployed: Deployed<T>,
    inputs: Inputs,
    elapsed: Duration,
    store: Option<ScratchDir>,
}

/// Deploys (replaying the seeded journal when durable), handshakes, and
/// runs the cold cycle and the warm-ups. Input generation is untimed.
fn set_up<T: Link>(
    config: &RunConfig,
    journal: Option<&[shadow::PersistRecord]>,
) -> Result<Setup<T>, Error> {
    let workload = config.workload;
    let store = match journal {
        Some(records) => {
            let dir = ScratchDir::new("durable")?;
            journal::seed(dir.path(), records)?;
            Some(dir)
        }
        None => None,
    };
    let mut inputs = Inputs::new(workload, config.seed);
    let start = Instant::now();
    let deployment = harness::deployment(store.as_ref().map(ScratchDir::path));
    let mut deployed = T::deploy(deployment, workload)?;
    deployed.register_job();
    let mut elapsed = start.elapsed();
    for warmup in 0..=WARMUPS {
        if warmup > 0 {
            inputs.advance();
        }
        let content = inputs.current().to_vec();
        let sample = deployed
            .cycle(content, || workload.expected_output(inputs.current()), None)
            .map_err(|e| format!("set-up cycle {warmup}: {e}"))?;
        elapsed += sample.elapsed;
    }
    Ok(Setup {
        deployed,
        inputs,
        elapsed,
        store,
    })
}

fn run_over<T: Link>(config: &RunConfig) -> Result<RunResult, Error> {
    let workload = config.workload;
    let journal = workload.durable().then(|| journal::records(config.seed));
    let mut live = set_up::<T>(config, journal.as_deref())?;
    let mut setup_s = vec![live.elapsed.as_secs_f64()];
    for _ in 1..config.setups {
        live.deployed.shutdown()?;
        live = set_up::<T>(config, journal.as_deref())?;
        setup_s.push(live.elapsed.as_secs_f64());
    }
    let Setup {
        mut deployed,
        mut inputs,
        store,
        ..
    } = live;

    // The counters cover exactly the untraced pass. The last frame of
    // each window (the final cycle's output ack) may still be in flight,
    // so a heartbeat closes both windows; it falls outside the client's
    // window, and the one inside the server's is subtracted.
    deployed.quiesce()?;
    let before = (deployed.client_report(), deployed.server_report()?);
    let untraced = measure(&mut deployed, &mut inputs, config, None);
    let client_after = deployed.client_report();
    deployed.quiesce()?;
    let after = (client_after, deployed.server_report()?);

    let mut traced = None;
    if config.trace && untraced.failure.is_none() {
        let replay_from = inputs.clone();
        let tracer = Tracer::install(deployed.client_mut());
        traced = Some((
            measure(&mut deployed, &mut inputs, config, Some(&tracer)),
            replay_from,
        ));
    }
    let final_check = if workload == Workload::BinarySplice {
        // `echo ok` never reads the blob; one `wc` proves the server
        // holds exactly the bytes the client last wrote.
        deployed.check_wc(inputs.current())
    } else {
        Ok(())
    };
    deployed.shutdown()?;
    // Removed only once the server journaling into it has stopped.
    drop(store);

    let end_to_end = end_to_end(&untraced, &setup_s, &before, &after);
    let mut result = RunResult {
        workload,
        attempted: untraced.attempted(),
        failed: usize::from(untraced.failure.is_some()),
        failure: untraced.failure.as_ref().map(ToString::to_string),
        cycles: untraced.samples.len(),
        end_to_end,
        per_layer: Vec::new(),
        traced: Vec::new(),
    };
    if let Some((pass, replay_from)) = traced {
        result.attempted += pass.attempted();
        result.failed += usize::from(pass.failure.is_some());
        if let Some(failure) = &pass.failure {
            result.failure = Some(failure.to_string());
        }
        let layers = replay::replay(workload, replay_from, pass.samples.len())?;
        result.per_layer = per_layer(&pass, &untraced, &layers, &before, &after);
        result.traced = pass.samples;
    }
    if let Err(e) = final_check {
        result.failure.get_or_insert(format!("final check: {e}"));
    }
    Ok(result)
}

/// Counter differences across the untraced pass.
struct Counters<'a> {
    before: &'a (NodeReport, NodeReport),
    after: &'a (NodeReport, NodeReport),
}

impl Counters<'_> {
    fn client(&self, section: &str, key: &str) -> f64 {
        let (b, a) = (&self.before.0, &self.after.0);
        a.counter(section, key)
            .saturating_sub(b.counter(section, key)) as f64
    }

    fn server(&self, section: &str, key: &str) -> f64 {
        let (b, a) = (&self.before.1, &self.after.1);
        a.counter(section, key)
            .saturating_sub(b.counter(section, key)) as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn end_to_end(
    pass: &Pass,
    setup_s: &[f64],
    before: &(NodeReport, NodeReport),
    after: &(NodeReport, NodeReport),
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut setups = setup_s.to_vec();
    stats::sort(&mut setups);
    if let Some(setup) = median(&setups) {
        metrics.push(Metric::new("setup_s", setup, "s"));
    }
    let ms = pass.sorted_ms();
    if let Some(p50) = median(&ms) {
        metrics.push(Metric::new("cycle_p50_ms", p50, "ms"));
    }
    if let Some(tail) = tail_percentile(&ms, TAIL) {
        metrics.push(Metric::new(format!("cycle_p{TAIL}_ms"), tail, "ms"));
    }
    let n = pass.samples.len() as f64;
    if n > 0.0 {
        let busy: f64 = ms.iter().sum::<f64>() / 1e3;
        metrics.push(Metric::new("cycles_per_s", n / busy, "1/s"));
        let counters = Counters { before, after };
        let wire =
            counters.client("driver", "bytes_sent") + counters.client("driver", "bytes_received");
        metrics.push(Metric::new("wire_bytes_per_cycle", wire / n, "bytes"));
    }
    if let Some(rss) = pass.rss_mb {
        metrics.push(Metric::new("peak_rss_mb", rss, "MiB"));
    }
    metrics
}

fn per_layer(
    traced: &Pass,
    untraced: &Pass,
    layers: &Layers,
    before: &(NodeReport, NodeReport),
    after: &(NodeReport, NodeReport),
) -> Vec<Metric> {
    let mut metrics = Vec::new();
    let mut turnaround_p50 = None;
    for (i, name) in STAGES.iter().enumerate() {
        let mut us: Vec<f64> = traced
            .samples
            .iter()
            .filter_map(|s| s.bounds)
            .map(|b| (b[i + 1] - b[i]).as_secs_f64() * 1e6)
            .collect();
        stats::sort(&mut us);
        if let Some(p50) = percentile(&us, 50) {
            metrics.push(Metric::new(format!("{name}.p50"), p50, "us"));
            if *name == "server.turnaround_us" {
                turnaround_p50 = Some(p50);
            }
        }
        if let Some(tail) = tail_percentile(&us, TAIL) {
            metrics.push(Metric::new(format!("{name}.p{TAIL}"), tail, "us"));
        }
    }
    metrics.extend(layers.metrics());
    if let Some(turnaround) = turnaround_p50 {
        metrics.push(Metric::new(
            "runtime.unaccounted_us",
            turnaround - layers.server_work_us(),
            "us",
        ));
    }
    if let (Some(with), Some(without)) =
        (median(&traced.sorted_ms()), median(&untraced.sorted_ms()))
    {
        metrics.push(Metric::new(
            "trace.overhead_pct",
            (with / without - 1.0) * 100.0,
            "%",
        ));
    }

    let n = untraced.samples.len() as f64;
    let c = Counters { before, after };
    let per_cycle = |v: f64| ratio(v, n);
    metrics.extend([
        Metric::new(
            "runtime.polls_per_cycle",
            per_cycle(c.server("server_runtime", "polls")),
            "count",
        ),
        Metric::new(
            "runtime.frames_per_cycle",
            per_cycle(
                c.server("server_runtime", "frames_fed") - c.server("server", "pings_answered"),
            ),
            "count",
        ),
        Metric::new(
            "client.uplink_bytes_per_cycle",
            per_cycle(c.client("driver", "bytes_sent")),
            "bytes",
        ),
        Metric::new(
            "client.downlink_bytes_per_cycle",
            per_cycle(c.client("driver", "bytes_received")),
            "bytes",
        ),
        Metric::new(
            "server.delta_ratio",
            ratio(
                c.server("server", "delta_updates"),
                c.server("server", "delta_updates") + c.server("server", "full_updates"),
            ),
            "ratio",
        ),
        Metric::new(
            "server.output_delta_ratio",
            ratio(
                c.server("server", "output_deltas"),
                c.server("server", "jobs_completed"),
            ),
            "ratio",
        ),
        Metric::new(
            "store.appends_per_cycle",
            per_cycle(c.server("store", "appends")),
            "count",
        ),
        Metric::new(
            "store.bytes_per_cycle",
            per_cycle(c.server("store", "appended_bytes")),
            "bytes",
        ),
        Metric::new(
            "store.compactions_per_cycle",
            per_cycle(c.server("store", "compactions")),
            "count",
        ),
    ]);
    metrics
}

/// The process's peak resident set (`VmHWM`), in MiB. Read once a pass
/// has completed its minimum cycle count, so it reflects a fixed amount
/// of work: `LiveClient` keeps every finished job's output, and a peak
/// read at the end of a timed pass would grow with throughput.
fn peak_rss_mb() -> Result<f64, Error> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_metric_is_named_for_the_tail_percentile() {
        let name = format!("cycle_p{TAIL}_ms");
        assert!(END_TO_END.iter().any(|spec| spec.name == name));
        assert_eq!(stats::min_samples(TAIL), 200);
    }
}
