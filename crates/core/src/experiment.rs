//! The paper's evaluation, reproduced (§8.1, Figures 1–3).
//!
//! "In each experiment, we submitted a job with a data file. After
//! obtaining the results, we edited the data file and resubmitted the same
//! job. We modified the data file by a different amount every time … We
//! measured the total amount of time spent in each case."
//!
//! [`run_cycle`] performs exactly that edit-submit-fetch cycle inside the
//! deterministic simulation and reports the first-submission time (the
//! conventional **F-time** — the whole file travels) and the resubmission
//! time (**S-time** under shadow processing, or F-time again under the
//! conventional baseline). [`figure_rows`] sweeps file sizes and
//! modification percentages for Figures 1–2; [`render_speedup_table`]
//! formats Figure 3's F-time/S-time speedup factors.

use shadow_client::{ClientConfig, TransferMode};
use shadow_netsim::LinkProfile;
use shadow_proto::SubmitOptions;
use shadow_server::ServerConfig;
use shadow_workload::{generate_file, EditModel, FileSpec};

use crate::{CpuModel, Simulation};

/// Fixed parameters of one edit-submit-fetch experiment.
#[derive(Debug, Clone)]
pub struct CycleSetup {
    /// The long-haul link model.
    pub link: LinkProfile,
    /// The machine cost model.
    pub cpu: CpuModel,
    /// Data-file size in bytes.
    pub file_size: usize,
    /// Shadow processing or the conventional baseline.
    pub mode: TransferMode,
    /// Workload seed.
    pub seed: u64,
}

impl CycleSetup {
    /// A setup with the calibrated CPU model and shadow mode.
    pub fn new(link: LinkProfile, file_size: usize) -> Self {
        CycleSetup {
            link,
            cpu: CpuModel::default(),
            file_size,
            mode: TransferMode::Shadow,
            seed: 0x5EED,
        }
    }

    /// Switches to the conventional (full-transfer) baseline.
    #[must_use]
    pub fn conventional(mut self) -> Self {
        self.mode = TransferMode::Conventional;
        self
    }
}

/// Measured times for one cycle, in seconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleResult {
    /// First submission (nothing cached): the full file travels.
    pub first_secs: f64,
    /// Resubmission after editing `fraction` of the file.
    pub resubmit_secs: f64,
    /// Client→server payload bytes during the first submission.
    pub first_bytes: u64,
    /// Client→server payload bytes during the resubmission.
    pub resubmit_bytes: u64,
    /// Client frames sent across the whole cycle (both submissions).
    pub frames: u64,
    /// Full-content updates the client sent across the cycle.
    pub fulls_sent: u64,
    /// Delta updates the client sent across the cycle.
    pub deltas_sent: u64,
    /// Server shadow-cache hit rate at the end of the cycle.
    pub cache_hit_rate: f64,
    /// Sim-clock time when the cycle finished, milliseconds.
    pub makespan_ms: u64,
}

/// Runs one edit-submit-fetch cycle: initial submission, then an editing
/// session touching `fraction` of the data file's bytes, then
/// resubmission of the same job.
pub fn run_cycle(setup: &CycleSetup, fraction: f64) -> CycleResult {
    let mut sim = Simulation::new(1).with_cpu(setup.cpu);
    let server = sim.add_server("superc", ServerConfig::new("superc"));
    let client_config = match setup.mode {
        TransferMode::Shadow => ClientConfig::new("ws", 1),
        TransferMode::Conventional => ClientConfig::new("ws", 1).conventional(),
    };
    let client = sim.add_client("ws", client_config);
    let conn = sim
        .connect(client, server, setup.link.clone())
        .expect("fresh pair connects");

    let content = generate_file(&FileSpec::new(setup.file_size, setup.seed));
    sim.edit_file(client, "/data", {
        let c = content.clone();
        move |_| c.clone()
    })
    .expect("write data file");
    let data_name = sim.canonical_name(client, "/data").expect("resolves");
    sim.edit_file(client, "/run.job", move |_| {
        format!("wc {data_name}\n").into_bytes()
    })
    .expect("write job file");

    // First submission: the whole file must travel.
    let start = sim.now();
    sim.submit(
        client,
        conn,
        "/run.job",
        &["/data"],
        SubmitOptions::default(),
    )
    .expect("submit");
    sim.run_until_quiet();
    let first_done = sim
        .finished_jobs(client)
        .last()
        .expect("first job completed")
        .at;
    let first_secs = (first_done - start).as_secs_f64();
    let first_bytes = sim.link_stats(client, server).0.payload_bytes;

    // Edit `fraction` of the file, resubmit the same job, measure the
    // cycle from the end of the editing session to output delivery.
    let model = EditModel::fraction(fraction, setup.seed.wrapping_add(1));
    let restart = sim.now();
    sim.edit_file(client, "/data", move |c| model.apply(&c))
        .expect("edit data file");
    sim.submit(
        client,
        conn,
        "/run.job",
        &["/data"],
        SubmitOptions::default(),
    )
    .expect("resubmit");
    sim.run_until_quiet();
    let second_done = sim
        .finished_jobs(client)
        .last()
        .expect("second job completed")
        .at;
    let resubmit_secs = (second_done - restart).as_secs_f64();
    let resubmit_bytes = sim.link_stats(client, server).0.payload_bytes - first_bytes;

    let client_report = sim.client_report(client);
    let server_report = sim.server_report(server);
    CycleResult {
        first_secs,
        resubmit_secs,
        first_bytes,
        resubmit_bytes,
        frames: client_report.counter("driver", "frames_sent"),
        fulls_sent: client_report.counter("client", "fulls_sent"),
        deltas_sent: client_report.counter("client", "deltas_sent"),
        cache_hit_rate: server_report.value("cache", "hit_rate"),
        makespan_ms: sim.now().as_millis(),
    }
}

/// One point of Figure 1/2: a file size and modification percentage with
/// the measured S-time and the baseline F-time, plus the wire-level
/// accounting that backs the claim (bytes, frames, cache behaviour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FigurePoint {
    /// File size in bytes.
    pub size: usize,
    /// Fraction of the file modified, `0.0..=1.0`.
    pub fraction: f64,
    /// Shadow-processing resubmission time, seconds.
    pub s_time: f64,
    /// Conventional resubmission time, seconds (the horizontal line).
    pub f_time: f64,
    /// Payload bytes of the conventional resubmission (full transfer).
    pub full_bytes: u64,
    /// Payload bytes of the shadow resubmission (delta transfer).
    pub delta_bytes: u64,
    /// Server shadow-cache hit rate at the end of the shadow cycle.
    pub cache_hit_rate: f64,
    /// Client frames sent during the shadow cycle.
    pub frames: u64,
    /// Sim-clock makespan of the shadow cycle, milliseconds.
    pub makespan_ms: u64,
}

impl FigurePoint {
    /// F-time / S-time — the paper's speedup factor (Figure 3 footnote).
    pub fn speedup(&self) -> f64 {
        self.f_time / self.s_time
    }

    /// The point as one machine-readable `BENCH_*.json` row.
    pub fn to_json(&self) -> shadow_obs::Json {
        shadow_obs::Json::object()
            .with("size", self.size)
            .with("fraction", self.fraction)
            .with("s_time_secs", self.s_time)
            .with("f_time_secs", self.f_time)
            .with("speedup", self.speedup())
            .with("full_bytes", self.full_bytes)
            .with("delta_bytes", self.delta_bytes)
            .with("cache_hit_rate", self.cache_hit_rate)
            .with("frames", self.frames)
            .with("makespan_ms", self.makespan_ms)
    }
}

/// Sweeps sizes × fractions over a link, producing every point of a
/// transfer-time figure. For each size the conventional baseline runs
/// once (its time does not depend on the edit fraction).
pub fn figure_rows(
    link: &LinkProfile,
    sizes: &[usize],
    fractions: &[f64],
    cpu: CpuModel,
) -> Vec<FigurePoint> {
    let mut points = Vec::with_capacity(sizes.len() * fractions.len());
    for &size in sizes {
        let mut conventional = CycleSetup::new(link.clone(), size).conventional();
        conventional.cpu = cpu;
        let baseline = run_cycle(&conventional, 0.05);
        let f_time = baseline.resubmit_secs;
        for &fraction in fractions {
            let mut shadow = CycleSetup::new(link.clone(), size);
            shadow.cpu = cpu;
            let r = run_cycle(&shadow, fraction);
            points.push(FigurePoint {
                size,
                fraction,
                s_time: r.resubmit_secs,
                f_time,
                full_bytes: baseline.resubmit_bytes,
                delta_bytes: r.resubmit_bytes,
                cache_hit_rate: r.cache_hit_rate,
                frames: r.frames,
                makespan_ms: r.makespan_ms,
            });
        }
    }
    points
}

/// Renders figure points as an aligned text table (one row per point),
/// the form the bench harnesses print.
pub fn render_figure(title: &str, points: &[FigurePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {title}\n"));
    out.push_str(&format!(
        "{:>8} {:>6} {:>12} {:>12} {:>9}\n",
        "size", "%mod", "S-time(s)", "F-time(s)", "speedup"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>8} {:>6.0} {:>12.1} {:>12.1} {:>9.1}\n",
            p.size,
            p.fraction * 100.0,
            p.s_time,
            p.f_time,
            p.speedup()
        ));
    }
    out
}

/// Renders the Figure 3 speedup table: rows = file sizes, columns =
/// modification percentages.
pub fn render_speedup_table(points: &[FigurePoint], fractions: &[f64]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:>10} |", "File Size"));
    for f in fractions {
        out.push_str(&format!(" {:>6.0}% mod", f * 100.0));
    }
    out.push('\n');
    let mut sizes: Vec<usize> = points.iter().map(|p| p.size).collect();
    sizes.dedup();
    for size in sizes {
        out.push_str(&format!("{:>9}k |", size / 1000));
        for f in fractions {
            let p = points
                .iter()
                .find(|p| p.size == size && (p.fraction - f).abs() < 1e-9)
                .expect("point swept");
            out.push_str(&format!(" {:>10.1}", p.speedup()));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_netsim::profiles;
    use shadow_workload::{PAPER_PERCENTS_FIG3, PAPER_SIZES_FIG3};

    #[test]
    fn first_submission_times_match_paper_magnitude() {
        // Figure 1: a 100 KB file over Cypress takes on the order of two
        // minutes to ship whole.
        let setup = CycleSetup::new(profiles::cypress(), 100_000);
        let r = run_cycle(&setup, 0.05);
        assert!(
            (90.0..200.0).contains(&r.first_secs),
            "first = {}",
            r.first_secs
        );
        // The resubmission after a 5% edit is far cheaper.
        assert!(r.resubmit_secs < r.first_secs / 3.0, "{r:?}");
        assert!(r.resubmit_bytes < r.first_bytes / 5);
    }

    #[test]
    fn conventional_baseline_pays_full_price_every_time() {
        let setup = CycleSetup::new(profiles::cypress(), 100_000).conventional();
        let r = run_cycle(&setup, 0.05);
        // Resubmission costs about as much as the first submission.
        assert!(
            (r.resubmit_secs / r.first_secs) > 0.8,
            "conventional resubmit should not be cheap: {r:?}"
        );
    }

    #[test]
    fn speedup_grows_with_file_size_and_shrinks_with_edit_fraction() {
        let cpu = CpuModel::default();
        let points = figure_rows(&profiles::arpanet(), &[10_000, 100_000], &[0.01, 0.20], cpu);
        let sp = |size: usize, f: f64| {
            points
                .iter()
                .find(|p| p.size == size && (p.fraction - f).abs() < 1e-9)
                .unwrap()
                .speedup()
        };
        assert!(sp(100_000, 0.01) > sp(10_000, 0.01), "size monotonicity");
        assert!(
            sp(100_000, 0.01) > sp(100_000, 0.20),
            "fraction monotonicity"
        );
        assert!(sp(10_000, 0.20) > 1.0, "shadow always wins at 20%");
    }

    #[test]
    fn figure3_speedups_are_in_the_paper_band() {
        // Paper (ARPANET): 1% modified → 13.5–24.9×; 20% → 3.7–4.3×.
        // Accept the same order of magnitude: shape, not exact numbers.
        let points = figure_rows(
            &profiles::arpanet(),
            &[PAPER_SIZES_FIG3[0], PAPER_SIZES_FIG3[3]],
            &[PAPER_PERCENTS_FIG3[0], PAPER_PERCENTS_FIG3[3]],
            CpuModel::default(),
        );
        let sp = |size: usize, f: f64| {
            points
                .iter()
                .find(|p| p.size == size && (p.fraction - f).abs() < 1e-9)
                .unwrap()
                .speedup()
        };
        let s_small_1 = sp(10_000, 0.01);
        let s_large_1 = sp(500_000, 0.01);
        let s_small_20 = sp(10_000, 0.20);
        let s_large_20 = sp(500_000, 0.20);
        assert!((5.0..40.0).contains(&s_small_1), "10k@1% = {s_small_1}");
        assert!((12.0..45.0).contains(&s_large_1), "500k@1% = {s_large_1}");
        assert!((2.0..8.0).contains(&s_small_20), "10k@20% = {s_small_20}");
        assert!((2.0..8.0).contains(&s_large_20), "500k@20% = {s_large_20}");
    }

    #[test]
    fn renderers_produce_rows() {
        let points = vec![FigurePoint {
            size: 100_000,
            fraction: 0.05,
            s_time: 30.0,
            f_time: 120.0,
            full_bytes: 100_000,
            delta_bytes: 5_000,
            cache_hit_rate: 0.5,
            frames: 12,
            makespan_ms: 150_000,
        }];
        let fig = render_figure("Figure 1", &points);
        assert!(fig.contains("Figure 1"));
        assert!(fig.contains("100000"));
        let table = render_speedup_table(&points, &[0.05]);
        assert!(table.contains("100k"));
        assert!(table.contains("4.0"));
    }
}
