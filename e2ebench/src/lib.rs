//! End-to-end benchmark of the pilot stack: one unit's whole path, from
//! `submit_unit` until its state is visible to a query, measured layer by
//! layer over four workloads. See README.md for the workloads, their fixed
//! constants, and every metric's definition.

mod fabric;
mod frames;
mod layers;
mod md;
mod noop;
pub mod report;
mod stack;
mod trace;

use report::Outcome;
use trace::now_s;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["unit_noop", "ensemble_md", "stream_frames", "fabric_sim"];

/// Input scale: `Full` is the benchmark; `Smoke` is a seconds-long size
/// for the self-tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

/// What one run measures.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Measurement budget: repetitions start while they fit in it.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub scale: Scale,
    /// A deliberate fault, for the self-tests that show an output check
    /// catches it; the command line never sets one.
    pub inject: Option<Inject>,
}

/// Faults the self-tests inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inject {
    /// `stream_frames`: the first frame's payload is corrupted.
    CorruptFrame,
    /// `unit_noop`: the sink drops the first unit's `Done` event.
    SuppressDone,
}

/// Run one workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "unit_noop" => noop::run(args),
        "ensemble_md" => md::run(args),
        "stream_frames" => frames::run(args),
        "fabric_sim" => fabric::run(args),
        other => Err(format!(
            "unknown workload '{other}'; one of {}",
            WORKLOADS.join(", ")
        )),
    }
}

/// Set-up-only cycles before a run's first repetition: `setup_s` is their
/// median. They run back to back before any repetition has written its
/// WAL: set-ups taken right after a repetition read slower and spread
/// wider.
pub const SETUP_SAMPLES: usize = 200;

/// Run repetitions while the next one (assumed as long as the last) fits
/// in `seconds`; at least `min_reps`.
pub fn repeat(
    seconds: f64,
    min_reps: usize,
    mut rep: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let start = now_s();
    let mut last = 0.0;
    let mut n = 0;
    while n < min_reps || now_s() - start + last <= seconds {
        let t = now_s();
        rep(n)?;
        last = now_s() - t;
        n += 1;
    }
    Ok(())
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Traced runs trace their first repetition only; the rest run untraced.
/// Per-layer numbers come from the traced one, and the gap between its
/// throughput and the untraced median is the tracing overhead.
pub fn traced_rep(trace: bool, rep: usize) -> bool {
    trace && rep == 0
}
