//! Minimal in-tree substitute for the `criterion` crate.
//!
//! Provides the measurement surface the bench harnesses use —
//! `Criterion`, `benchmark_group`, `bench_function`,
//! `bench_with_input`, `Throughput`, `BenchmarkId`, and the
//! `criterion_group!`/`criterion_main!` macros. Measurement is a plain
//! warm-up + timed-batch mean (no statistics, no HTML reports): each
//! benchmark prints one line with the mean iteration time and, when a
//! throughput was declared, the derived rate.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Declared work per iteration, for rate reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Abstract elements processed per iteration.
    Elements(u64),
}

/// A benchmark identifier combining a function name and a parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `name/parameter`, criterion's display convention.
    pub fn new(name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", name.into(), parameter),
        }
    }
}

/// Something usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The rendered name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Drives one benchmark's iterations.
pub struct Bencher {
    mean: Duration,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine`, storing the mean iteration time.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up and calibration: run once to estimate scale.
        let once = Instant::now();
        black_box(routine());
        let estimate = once.elapsed().max(Duration::from_nanos(1));

        // Aim for ~100ms of measurement, clamped by the sample size the
        // caller configured and a hard iteration cap.
        let budget = Duration::from_millis(100);
        let by_budget = (budget.as_nanos() / estimate.as_nanos()).clamp(1, 10_000) as usize;
        let iters = by_budget.min(self.sample_size.max(1));

        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        self.mean = start.elapsed() / iters as u32;
    }
}

fn render_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2} s", nanos as f64 / 1e9)
    }
}

fn report(name: &str, mean: Duration, throughput: Option<Throughput>) {
    let rate = match throughput {
        Some(Throughput::Bytes(bytes)) if mean.as_nanos() > 0 => {
            let per_sec = bytes as f64 / mean.as_secs_f64();
            format!("  ({:.1} MiB/s)", per_sec / (1024.0 * 1024.0))
        }
        Some(Throughput::Elements(n)) if mean.as_nanos() > 0 => {
            format!("  ({:.0} elem/s)", n as f64 / mean.as_secs_f64())
        }
        _ => String::new(),
    };
    println!("bench: {name:<40} {:>12}{rate}", render_duration(mean));
}

/// The benchmark driver handed to every `criterion_group!` target.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 100 }
    }
}

impl Criterion {
    /// Runs one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            mean: Duration::ZERO,
            sample_size: self.sample_size,
        };
        f(&mut b);
        report(name, b.mean, None);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = self.sample_size;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            throughput: None,
            sample_size,
        }
    }
}

/// A group of benchmarks sharing a name prefix and throughput setting.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Declares per-iteration work for rate reporting.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Caps the number of timed iterations.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<I: IntoBenchmarkId, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            mean: Duration::ZERO,
            sample_size: self.sample_size,
        };
        f(&mut b);
        report(
            &format!("{}/{}", self.name, id.into_id()),
            b.mean,
            self.throughput,
        );
        self
    }

    /// Runs one benchmark parameterised by `input`.
    pub fn bench_with_input<I: IntoBenchmarkId, T: ?Sized, F: FnMut(&mut Bencher, &T)>(
        &mut self,
        id: I,
        input: &T,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            mean: Duration::ZERO,
            sample_size: self.sample_size,
        };
        f(&mut b, input);
        report(
            &format!("{}/{}", self.name, id.into_id()),
            b.mean,
            self.throughput,
        );
        self
    }

    /// Ends the group (reporting is immediate, so this is a no-op).
    pub fn finish(self) {}
}

/// Declares a benchmark group function running each target in order.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running every listed group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_measures_and_reports() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let mut group = c.benchmark_group("grp");
        group.throughput(Throughput::Bytes(1024));
        group.sample_size(10);
        group.bench_function("inner", |b| b.iter(|| vec![0u8; 64]));
        group.bench_with_input(BenchmarkId::new("param", 7), &7, |b, &n| b.iter(|| n * 2));
        group.finish();
    }
}
