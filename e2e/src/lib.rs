//! `shadow-e2e`: the live submit-cycle benchmark.
//!
//! One closed-loop scientist edits a data file and resubmits a job
//! through the real runtime — edit → notify → demand pull → delta →
//! apply → exec → output (paper §8.1) — over in-process pipes or TCP
//! loopback, with no modelled job time. Each workload reports
//! end-to-end metrics from an untraced pass, then per-stage spans from a
//! traced pass and a replay that re-times each layer's public function
//! on that pass's exact inputs. See `README.md` for the workloads, the
//! metrics and their bounds.

pub mod harness;
mod journal;
mod replay;
pub mod run;
pub mod stats;
pub mod workload;

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub use run::{run, Metric, RunConfig, RunResult};
pub use workload::Workload;

/// The seed a run uses unless told otherwise.
pub const DEFAULT_SEED: u64 = 1988;

/// The error type of a run that could not be carried out at all (a
/// deployment that would not start, a store that would not open); a
/// cycle that fails is counted instead.
pub type Error = Box<dyn std::error::Error>;

/// Where runs keep their scratch stores and the traced pass's spans:
/// `out/` beside this package's manifest.
pub(crate) fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory under [`work_dir`] private to one use in this process,
/// removed when dropped — also when the run fails part-way.
#[derive(Debug)]
pub(crate) struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates an empty `<label>-<pid>-<n>` directory.
    ///
    /// # Errors
    ///
    /// The directory could not be created.
    pub(crate) fn new(label: &str) -> io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = work_dir().join(format!("{label}-{}-{n}", std::process::id()));
        // A crashed earlier process with a recycled pid may have left it.
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }

    /// The directory.
    pub(crate) fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Counts heap allocations while [`count_allocs`] is on, for the layer
/// replay's `.allocs` metrics. The binary installs it as the global
/// allocator; elsewhere the count stays 0.
#[derive(Debug)]
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Turns allocation counting on or off (off outside the replay, so the
/// measured cycles pay only a flag load per allocation).
pub(crate) fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub(crate) fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter has no
// effect on the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
