//! The benchmark's wrappers around the layers' public entry points.
//!
//! Counting wrappers ([`CountedGen`], and [`TappedSource`] without a
//! timer) run in every episode: they supply `ios_attempted`, the number
//! of IOs the workloads generated, and pause the measured phase at the
//! slice boundaries of [`Progress`] to [`calibrate`] the host's speed. Timing wrappers ([`TimedWorkload`], and
//! [`TappedSource`] with a timer) run only in traced episodes. None of
//! them changes what the simulation sees, which the traced run checks by
//! comparing its simulated statistics with an untraced episode's.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use eagletree_core::{BlkRecord, SimRng};
use eagletree_os::{CompletedIo, OsIo, ThreadCtx, Workload};
use eagletree_workloads::{IoGen, TraceSource};

/// Host time spent inside some calls, and how many calls there were.
#[derive(Debug, Default)]
pub struct Timer {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Timer {
    /// Run `f`, charging its wall time to this timer.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Total host ns charged.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Calls timed.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Times every `Workload` callback (`init`, `call_back`, `on_timer`).
pub struct TimedWorkload {
    inner: Box<dyn Workload>,
    timer: Rc<Timer>,
}

impl TimedWorkload {
    pub fn new(inner: Box<dyn Workload>, timer: Rc<Timer>) -> Self {
        TimedWorkload { inner, timer }
    }
}

impl Workload for TimedWorkload {
    fn init(&mut self, ctx: &mut ThreadCtx) {
        self.timer.time(|| self.inner.init(ctx));
    }

    fn call_back(&mut self, ctx: &mut ThreadCtx, done: CompletedIo) {
        self.timer.time(|| self.inner.call_back(ctx, done));
    }

    fn on_timer(&mut self, ctx: &mut ThreadCtx) {
        self.timer.time(|| self.inner.on_timer(ctx));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Iterations of the calibration loop: about 16 µs on the machine the
/// benchmark was tuned on.
const CAL_ITERS: u64 = 20_000;

/// Host ns the calibration loop takes right now: the benchmark's measure
/// of how fast the machine currently runs code. The loop is fixed
/// arithmetic that does not depend on the simulator, so a change to the
/// program cannot move it. The minimum of three runs, so that one
/// preemption does not read as a slow machine.
pub fn calibrate() -> u64 {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            let mut y = 1u64;
            for i in 0..CAL_ITERS {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                y ^= x.rotate_left((i & 31) as u32);
            }
            black_box(y);
            start.elapsed().as_nanos() as u64
        })
        .min()
        .expect("three calibration runs")
}

/// A slice boundary: the measured phase paused at `end`, the calibration
/// loop took `cal_ns`, and the phase resumed at `resume`.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    pub end: Instant,
    pub cal_ns: u64,
    pub resume: Instant,
}

/// Offered work in the measured phase: IOs generated (closed loop) or
/// trace pages read (replay). Each time the count crosses a multiple of
/// `every`, the phase pauses for a [`calibrate`] run and records a
/// [`Mark`]. Marks fall at the same simulated point in every episode of
/// a run, so they cut each episode into the same slices of work.
#[derive(Debug)]
pub struct Progress {
    count: AtomicU64,
    every: u64,
    marks: Mutex<Vec<Mark>>,
}

impl Progress {
    pub fn new(every: u64) -> Self {
        assert!(every > 0, "slice size must be positive");
        Progress {
            count: AtomicU64::new(0),
            every,
            marks: Mutex::new(Vec::new()),
        }
    }

    /// Record `n` more units offered.
    fn advance(&self, n: u64) {
        // A statistic read after the run; it publishes no other data.
        let before = self.count.fetch_add(n, Ordering::Relaxed);
        if (before + n) / self.every > before / self.every {
            let end = Instant::now();
            let cal_ns = calibrate();
            let mark = Mark {
                end,
                cal_ns,
                resume: Instant::now(),
            };
            self.marks
                .lock()
                .expect("no thread panics holding marks")
                .push(mark);
        }
    }

    /// Units offered so far (`ios_attempted`).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The slice boundaries, in order.
    pub fn marks(&self) -> Vec<Mark> {
        self.marks
            .lock()
            .expect("no thread panics holding marks")
            .clone()
    }
}

/// Counts the IOs a generator hands out.
pub struct CountedGen<G> {
    inner: G,
    progress: Arc<Progress>,
}

impl<G: IoGen> CountedGen<G> {
    pub fn new(inner: G, progress: Arc<Progress>) -> Self {
        CountedGen { inner, progress }
    }
}

impl<G: IoGen> IoGen for CountedGen<G> {
    fn next_io(&mut self, rng: &mut SimRng, logical_pages: u64) -> Option<OsIo> {
        let io = self.inner.next_io(rng, logical_pages);
        if io.is_some() {
            self.progress.advance(1);
        }
        io
    }
}

/// Counts the records a trace source yields (and their pages, as offered
/// work) and, when given a timer, times each `next_record` call.
pub struct TappedSource<S> {
    inner: S,
    records: Rc<Cell<u64>>,
    progress: Arc<Progress>,
    timer: Option<Rc<Timer>>,
}

impl<S: TraceSource> TappedSource<S> {
    pub fn new(
        inner: S,
        records: Rc<Cell<u64>>,
        progress: Arc<Progress>,
        timer: Option<Rc<Timer>>,
    ) -> Self {
        TappedSource {
            inner,
            records,
            progress,
            timer,
        }
    }
}

impl<S: TraceSource> TraceSource for TappedSource<S> {
    fn next_record(&mut self) -> Option<BlkRecord> {
        let rec = match &self.timer {
            Some(t) => t.time(|| self.inner.next_record()),
            None => self.inner.next_record(),
        };
        if let Some(r) = &rec {
            self.records.set(self.records.get() + 1);
            self.progress.advance(r.pages as u64);
        }
        rec
    }

    fn label(&self) -> &str {
        self.inner.label()
    }
}
