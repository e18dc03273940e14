//! The three benchmark workloads and the episode runner.
//!
//! Each workload targets different layers (see `README.md`):
//!
//! * `gc_overwrite_qd512` — controller dispatch, GC and the event engine;
//! * `tenants_wfq_obs` — OS two-stage dispatch, generators and
//!   observability;
//! * `replay_dftl_aged` — trace ingestion, open-loop timers, DFTL and the
//!   fault model.
//!
//! The workload seed comes from the command line and reaches only the
//! load generators (thread RNGs, the synthetic trace). The device
//! configuration, `FaultConfig::seed` included, is fixed.

use std::cell::Cell;
use std::io::BufReader;
use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use eagletree_controller::MappingKind;
use eagletree_core::{BlkRecord, ObsConfig, SimDuration, SimTime};
use eagletree_experiments::{measure_since, snapshot, Setup};
use eagletree_flash::{FaultConfig, Geometry};
use eagletree_os::{Os, QosPolicy, TenantConfig, ThreadId, Workload};
use eagletree_workloads::{
    sequential_fill, ChunkedSource, IoGen, MsrCsvSource, Pumped, RandReadGen, RandWriteGen, Region,
    Remap, ReplayThread, SynthCsv, SynthShape, SyntheticTrace, TraceSource, ZipfGen, ZipfKind,
};

use crate::probe::{calibrate, CountedGen, Mark, Progress, TappedSource, TimedWorkload, Timer};
use crate::sim::{layer_counters, SimStats};

/// The seed used when `--seed` is not given; `reference.txt` holds the
/// simulated statistics every workload must reproduce at it.
pub const DEFAULT_SEED: u64 = 1;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    GcOverwriteQd512,
    TenantsWfqObs,
    ReplayDftlAged,
}

impl WorkloadId {
    pub const ALL: [WorkloadId; 3] = [
        WorkloadId::GcOverwriteQd512,
        WorkloadId::TenantsWfqObs,
        WorkloadId::ReplayDftlAged,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::GcOverwriteQd512 => "gc_overwrite_qd512",
            WorkloadId::TenantsWfqObs => "tenants_wfq_obs",
            WorkloadId::ReplayDftlAged => "replay_dftl_aged",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Size of the measured phase at benchmark scale: IOs per generator
    /// unit (closed-loop workloads) or trace records (replay). The tests
    /// run smaller sizes.
    pub fn default_size(self) -> u64 {
        match self {
            WorkloadId::GcOverwriteQd512 => 40_000,
            WorkloadId::TenantsWfqObs => 8_000,
            WorkloadId::ReplayDftlAged => 40_000,
        }
    }

    /// Offered IOs per slice of the measured phase: 100 slices an
    /// episode at benchmark scale.
    fn slice(self) -> u64 {
        match self {
            WorkloadId::GcOverwriteQd512 => 400,
            WorkloadId::TenantsWfqObs => 1_000,
            WorkloadId::ReplayDftlAged => 400,
        }
    }

    /// The device and OS configuration (fixed: independent of the seed).
    pub fn setup(self) -> Setup {
        match self {
            WorkloadId::GcOverwriteQd512 => {
                // E18's stress point.
                let mut s = Setup::small();
                s.geometry = Geometry {
                    channels: 4,
                    luns_per_channel: 4,
                    planes_per_lun: 1,
                    blocks_per_plane: 128,
                    pages_per_block: 64,
                    page_size: 4096,
                };
                s.ctrl.wl.static_enabled = false;
                s.os.queue_depth = 512;
                s
            }
            WorkloadId::TenantsWfqObs => {
                let mut s = Setup::demo();
                s.os.qos = QosPolicy::Wfq;
                s.os.queue_depth = 32;
                s.ctrl.obs = ObsConfig {
                    span_capacity: 1 << 16,
                    timeline_interval_us: 500,
                };
                s
            }
            WorkloadId::ReplayDftlAged => {
                let mut s = Setup::small();
                s.geometry = Geometry {
                    channels: 4,
                    luns_per_channel: 4,
                    planes_per_lun: 1,
                    blocks_per_plane: 64,
                    pages_per_block: 64,
                    page_size: 4096,
                };
                s.ctrl.wl.static_enabled = false;
                s.ctrl.mapping = MappingKind::Dftl {
                    cmt_entries: (s.logical_pages() / 8) as usize,
                };
                // Program failures are off: with them on, the replay
                // stalls (see `stall_reproducer`). Read errors, retries
                // and erase failures stay at their defaults.
                s.ctrl.fault = Some(FaultConfig {
                    baseline_pe: 2_500,
                    program_fail_base: 0.0,
                    program_fail_per_pe: 0.0,
                    ..FaultConfig::default()
                });
                s.os.queue_depth = 64;
                s
            }
        }
    }
}

/// Host timers of a traced episode, from the benchmark's own wrappers.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostProbes {
    /// `Os::run` of the sequential preconditioning fill.
    pub fill_ns: u64,
    /// Inside measured-phase `Workload` callbacks, calibration pauses
    /// excluded.
    pub callback_ns: u64,
    /// Inside `TraceSource::next_record`.
    pub record_ns: u64,
    /// `next_record` calls (including the final `None`).
    pub record_calls: u64,
}

/// Host time of the calibration loop on the machine the benchmark was
/// tuned on, in its undisturbed state (see [`calibrate`]). Host times are
/// reported at this reference speed.
pub const CAL_REF_NS: f64 = 16_000.0;

/// One episode: set-up plus measured phase.
///
/// Host times come in two forms: as measured on the wall clock, and
/// scaled to the reference host speed, `ns × CAL_REF_NS / calibration`,
/// using the calibration runs at both ends of each slice. Interference
/// from outside the process slows the calibration loop with the program,
/// so the scaled times stay put while the machine's speed moves.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Wall ns for `Setup::build` plus the preconditioning fill.
    pub setup_ns: u64,
    /// `setup_ns` at the reference host speed.
    pub setup_ref_ns: f64,
    /// Wall ns inside the measured-phase `Os::run`, calibration pauses
    /// excluded.
    pub run_ns: u64,
    /// `run_ns` at the reference host speed.
    pub run_ref_ns: f64,
    /// Simulated statistics (the correctness gate's input).
    pub sim: SimStats,
    /// `Controller::check_invariants` after the run: `Err` holds its
    /// panic message.
    pub invariants: Result<(), String>,
    /// Host timers (wall ns), in traced episodes.
    pub probes: Option<HostProbes>,
}

impl Episode {
    /// Application IOs completed per reference-speed host second of the
    /// measured phase.
    pub fn host_ios_per_s(&self) -> f64 {
        self.sim.get("ios_completed") / (self.run_ref_ns / 1e9)
    }

    /// Reference-speed ns per wall ns in the measured phase: above 1
    /// when the host ran faster than the reference, below when slower.
    pub fn run_scale(&self) -> f64 {
        self.run_ref_ns / self.run_ns as f64
    }

    /// The same for the set-up.
    pub fn setup_scale(&self) -> f64 {
        self.setup_ref_ns / self.setup_ns as f64
    }
}

/// `wall_ns` at the reference host speed, given the calibration times at
/// both ends of the interval.
fn at_ref_speed(wall_ns: u64, cal_start_ns: u64, cal_end_ns: u64) -> f64 {
    wall_ns as f64 * 2.0 * CAL_REF_NS / (cal_start_ns + cal_end_ns) as f64
}

/// A per-thread seed derived from the workload seed (SplitMix64 finaliser
/// over `seed` and the thread's index).
fn thread_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the measured-phase threads, wrapping each in a timer when the
/// episode is traced.
struct Threads {
    progress: Arc<Progress>,
    records: Rc<Cell<u64>>,
    callbacks: Option<Rc<Timer>>,
    record_timer: Option<Rc<Timer>>,
}

impl Threads {
    fn wrap(&self, w: impl Workload + 'static) -> Box<dyn Workload> {
        match &self.callbacks {
            Some(t) => Box::new(TimedWorkload::new(Box::new(w), Rc::clone(t))),
            None => Box::new(w),
        }
    }

    fn pumped<G: IoGen + 'static>(&self, gen: G, window: u64, seed: u64) -> Box<dyn Workload> {
        self.wrap(Pumped::new(
            CountedGen::new(gen, Arc::clone(&self.progress)),
            window,
            seed,
        ))
    }

    /// Install the measured phase of `w`; returns the measured threads.
    fn install(&self, w: WorkloadId, os: &mut Os, seed: u64, size: u64) -> Vec<ThreadId> {
        match w {
            WorkloadId::GcOverwriteQd512 => {
                // One closed-loop thread, 512 uniform random overwrites
                // outstanding.
                let gen = RandWriteGen::new(Region::whole(), size);
                vec![os.add_thread(self.pumped(gen, 512, thread_seed(seed, 0)))]
            }
            WorkloadId::TenantsWfqObs => {
                // Eight tenants, WFQ weights 1-4: seven readers (a Zipf
                // reader with window 4 and a uniform reader with window
                // 2) and one Zipf writer with window 16.
                let ns_pages = os.controller().logical_pages() / 8;
                let mut tids = Vec::new();
                for t in 0..8u64 {
                    let mut cfg = TenantConfig::new(format!("tenant{t}"), ns_pages);
                    cfg.qos.weight = 1 + (t % 4) as u32;
                    let tenant = os.add_tenant(cfg);
                    let threads = if t < 7 {
                        let zipf = ZipfGen::new(Region::whole(), size, 0.99, ZipfKind::Reads);
                        let uniform = RandReadGen::new(Region::whole(), size / 2);
                        vec![
                            self.pumped(zipf, 4, thread_seed(seed, 2 * t)),
                            self.pumped(uniform, 2, thread_seed(seed, 2 * t + 1)),
                        ]
                    } else {
                        let zipf = ZipfGen::new(Region::whole(), 2 * size, 0.99, ZipfKind::Writes);
                        vec![self.pumped(zipf, 16, thread_seed(seed, 14))]
                    };
                    tids.extend(threads.into_iter().map(|w| os.add_tenant_thread(tenant, w)));
                }
                tids
            }
            WorkloadId::ReplayDftlAged => {
                // Open-loop replay through the full ingestion chain:
                // synthetic MSR-Cambridge CSV bytes -> parser -> LBA fold
                // -> bounded prefetch.
                let logical = os.controller().logical_pages();
                let shape = SynthShape {
                    footprint_pages: logical * 3 / 4,
                    read_fraction: 0.60,
                    trim_fraction: 0.01,
                    zipf_theta: 0.9,
                    pages_per_record: 1,
                    mean_interarrival: SimDuration::from_micros(150),
                    interarrival_cv: 1.0,
                };
                let csv = SynthCsv::new(SyntheticTrace::new(shape, size, seed), 4096);
                let parsed = MsrCsvSource::new(BufReader::new(csv), 4096);
                let chunked = ChunkedSource::new(Remap::new(parsed, logical), 4096);
                let anchored = StartAt {
                    inner: chunked,
                    origin: os.now(),
                };
                let src = TappedSource::new(
                    anchored,
                    Rc::clone(&self.records),
                    Arc::clone(&self.progress),
                    self.record_timer.clone(),
                );
                vec![os.add_thread(self.wrap(ReplayThread::open_loop(src, 1.0).named("replay")))]
            }
        }
    }
}

/// Moves a trace's origin to `origin`. `ReplayThread` schedules records
/// at their recorded instants in absolute virtual time, and the parser
/// starts traces at t = 0; without this, every record stamped before the
/// preconditioning fill ended would arrive at once.
struct StartAt<S> {
    inner: S,
    origin: SimTime,
}

impl<S: TraceSource> TraceSource for StartAt<S> {
    fn next_record(&mut self) -> Option<BlkRecord> {
        let mut rec = self.inner.next_record()?;
        rec.at = self.origin + SimDuration::from_nanos(rec.at.as_nanos());
        Some(rec)
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// The known stall, pinned: `replay_dftl_aged`'s device with the fault
/// model's default program-failure rates. `Os::run` returns with most of
/// the replay's IOs never completed and no error raised.
pub fn stall_reproducer() -> Setup {
    let mut s = WorkloadId::ReplayDftlAged.setup();
    let defaults = FaultConfig::default();
    let fault = s.ctrl.fault.as_mut().expect("the replay has a fault model");
    fault.program_fail_base = defaults.program_fail_base;
    fault.program_fail_per_pe = defaults.program_fail_per_pe;
    s
}

/// Run one episode of `w` at `seed` with a measured phase of `size`.
pub fn run_episode(w: WorkloadId, seed: u64, size: u64, traced: bool) -> Episode {
    run_episode_on(w.setup(), w, seed, size, traced)
}

/// Run one episode of `w`'s measured phase on the device `setup`.
pub fn run_episode_on(setup: Setup, w: WorkloadId, seed: u64, size: u64, traced: bool) -> Episode {
    let cal_before = calibrate();
    let t0 = Instant::now();
    let mut os = setup.build();
    os.add_thread(sequential_fill(32));
    let t1 = Instant::now();
    os.run();
    let fill_ns = elapsed_ns(t1);
    let setup_ns = elapsed_ns(t0);
    let cal_setup = calibrate();
    let setup_ref_ns = at_ref_speed(setup_ns, cal_before, cal_setup);
    let fill_events = os.events_simulated();

    let threads = Threads {
        progress: Arc::new(Progress::new(w.slice())),
        records: Rc::default(),
        callbacks: traced.then(Rc::default),
        record_timer: traced.then(Rc::default),
    };
    let tids = threads.install(w, &mut os, seed, size);
    let base = snapshot(&os);
    let before = layer_counters(&os);
    let t2 = Instant::now();
    os.run();
    let t3 = Instant::now();
    let last = Mark {
        end: t3,
        cal_ns: calibrate(),
        resume: t3,
    };
    // Sum the slices between calibration pauses, each at its own speed.
    let (mut run_ns, mut run_ref_ns, mut pause_ns) = (0, 0.0, 0);
    let (mut start, mut cal_start) = (t2, cal_setup);
    for mark in threads.progress.marks().into_iter().chain([last]) {
        let slice_ns = mark.end.saturating_duration_since(start).as_nanos() as u64;
        run_ns += slice_ns;
        run_ref_ns += at_ref_speed(slice_ns, cal_start, mark.cal_ns);
        pause_ns += mark.resume.saturating_duration_since(mark.end).as_nanos() as u64;
        (start, cal_start) = (mark.resume, mark.cal_ns);
    }

    let m = measure_since(&os, &tids, &base);
    let attempted = threads.progress.count();
    let completed: u64 = tids.iter().map(|&t| os.thread_stats(t).completed()).sum();
    let mut values: Vec<(String, f64)> = vec![
        ("ios_attempted".into(), attempted as f64),
        ("ios_completed".into(), completed as f64),
        ("sim_iops".into(), m.iops),
        ("sim_read_p99_us".into(), m.read_p99_us),
        ("sim_write_p99_us".into(), m.write_p99_us),
        ("sim_wa".into(), m.write_amplification),
        ("sim_queue_wait_us".into(), m.queue_wait_us),
        ("sim_end_ns".into(), os.now().as_nanos() as f64),
        (
            "quiescent_at_end".into(),
            if os.controller().is_quiescent() {
                1.0
            } else {
                0.0
            },
        ),
        ("fill_events".into(), fill_events as f64),
        ("trace_records".into(), threads.records.get() as f64),
    ];
    for ((name, b), (_, a)) in before.iter().zip(layer_counters(&os)) {
        values.push((name.to_string(), (a - b) as f64));
    }

    let ctrl = os.controller();
    let invariants =
        panic::catch_unwind(AssertUnwindSafe(|| ctrl.check_invariants())).map_err(|e| {
            e.downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "check_invariants panicked".to_string())
        });

    let probes = traced.then(|| HostProbes {
        fill_ns,
        // The calibration pauses happen inside workload callbacks.
        callback_ns: threads
            .callbacks
            .as_ref()
            .map_or(0, |t| t.ns().saturating_sub(pause_ns)),
        record_ns: threads.record_timer.as_ref().map_or(0, |t| t.ns()),
        record_calls: threads.record_timer.as_ref().map_or(0, |t| t.calls()),
    });
    Episode {
        setup_ns,
        setup_ref_ns,
        run_ns,
        run_ref_ns,
        sim: SimStats { values },
        invariants,
        probes,
    }
}
