//! The EagleTree simulator benchmark.
//!
//! Three named workloads run through the public `experiments` / `os` /
//! `workloads` API, one simulation at a time on one thread. Each run is a
//! sequence of *episodes*: build the device, precondition it with a
//! sequential fill (the set-up), then run the workload's measured phase.
//! Every episode of a run simulates exactly the same thing, so episodes
//! double as the repeat-run determinism check; host timings are reported
//! as medians over episodes.
//!
//! * [`workload`] — the three workloads and the episode runner, which
//!   also scales host times to a reference host speed.
//! * [`probe`] — the benchmark's own wrappers around the layers' public
//!   entry points: IO/record counters and the host-speed calibration
//!   (always on), host timers (traced runs only).
//! * [`sim`] — the simulated statistics of an episode, their digest, and
//!   the reference values recorded at the default seed.
//! * [`host`] — process-level host measurements (peak RSS, CPU time).
//! * [`outcome`] — the one-line JSON result.
//!
//! See `README.md` in this directory for the metric catalog.

#![forbid(unsafe_code)]
// Host wall-clock timing is this crate's purpose. The simulator crates
// ban `Instant::now` (clippy.toml) to keep simulations deterministic; the
// benchmark only reads the clock around calls into them, never feeds it
// back into a simulation.
#![allow(clippy::disallowed_methods)]

pub mod host;
pub mod outcome;
pub mod probe;
pub mod sim;
pub mod workload;

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
