//! Determinism regression: a fixed-seed mixed workload must produce
//! byte-identical completions, counters and span output across runs.
//! Event-ordering bugs — easy to introduce with multi-step merge machinery
//! or with the slab/ready-queue dispatch structures — fail loudly here
//! instead of as flaky experiment numbers.
//!
//! Coverage is the cross product that exercises every ordering decision:
//! all three mapping schemes and all five `SchedPolicy` variants (the
//! workload carries priority tags so `TagPriority` actually discriminates).
//!
//! Repeat-run comparisons cannot show that a refactor preserved behaviour,
//! so [`golden_fingerprints_match_pinned_digests`] also pins an FNV-1a
//! digest of every fingerprint in the matrix (with and without the media
//! fault model). A change that moves any digest changed the simulation.

use eagletree_controller::{
    Completion, Controller, ControllerConfig, IoTags, MappingKind, MergePolicy, RequestKind,
    SchedPolicy, ScrubConfig, SsdRequest, WlConfig,
};
use eagletree_core::{ObsConfig, SimRng, SimTime};
use eagletree_flash::{FaultConfig, Geometry, TimingSpec};

struct Driver {
    c: Controller,
    now: SimTime,
    next_id: u64,
    done: Vec<Completion>,
}

impl Driver {
    fn new(c: Controller) -> Self {
        Driver {
            c,
            now: SimTime::ZERO,
            next_id: 0,
            done: Vec::new(),
        }
    }

    fn submit(&mut self, kind: RequestKind, lpn: u64, tags: IoTags) {
        let id = self.next_id;
        self.next_id += 1;
        self.c.submit(
            SsdRequest {
                id,
                kind,
                lpn,
                tags,
            },
            self.now,
        );
    }

    fn run(&mut self) {
        while let Some(t) = self.c.next_event_time() {
            self.now = t;
            let batch = self.c.advance(t);
            self.done.extend(batch);
        }
        let tail = self.c.advance(self.now);
        self.done.extend(tail);
    }
}

/// Span collection on, sized so every span of a run is retained.
const SPANS_ON: ObsConfig = ObsConfig {
    span_capacity: 1 << 16,
    timeline_interval_us: 100,
};

/// A fault profile hot enough that the 2k-op mix sees program and erase
/// failures, ECC retries and scrub refreshes.
fn test_faults() -> FaultConfig {
    FaultConfig {
        program_fail_base: 0.01,
        erase_fail_base: 0.15,
        raw_bits_base: 4.0,
        raw_bits_per_disturb: 0.05,
        ecc_bits: 6,
        read_retries: 2,
        ..FaultConfig::default()
    }
}

/// The matrix's controller config: `mapping` × `sched`, optionally against
/// a faulty array with scrubbing.
fn workload_config(
    mapping: MappingKind,
    sched: SchedPolicy,
    faults: bool,
    obs: ObsConfig,
) -> ControllerConfig {
    ControllerConfig {
        mapping,
        sched,
        obs,
        wl: WlConfig {
            check_every_erases: 16,
            young_delta: 4,
            idle_factor: 0.5,
            ..WlConfig::default()
        },
        fault: faults.then(test_faults),
        scrub: faults.then_some(ScrubConfig {
            check_every_ops: 128,
            read_disturb_threshold: 8,
            retention_threshold_s: 0.05,
            max_inflight: 1,
        }),
        ..ControllerConfig::default()
    }
}

/// Run a fixed-seed mixed write/trim/read workload (every fifth request
/// priority-tagged), optionally against a faulty array with scrubbing.
fn run_workload(mapping: MappingKind, sched: SchedPolicy, faults: bool, obs: ObsConfig) -> Driver {
    drive(workload_config(mapping, sched, faults, obs))
}

/// Run the fixed-seed mixed workload against a tiny device under `cfg`.
fn drive(cfg: ControllerConfig) -> Driver {
    let mut d = Driver::new(Controller::new(Geometry::tiny(), TimingSpec::slc(), cfg).unwrap());
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(0xD17E_2B11);
    let ops: Vec<(RequestKind, u64, IoTags)> = (0..2000)
        .map(|i| {
            let lpn = rng.gen_range(logical);
            let tags = if i % 5 == 0 {
                IoTags::none().with_priority((i % 3) as u8)
            } else {
                IoTags::none()
            };
            match i % 10 {
                0..=5 => (RequestKind::Write, lpn, tags),
                6 => (RequestKind::Trim, lpn, tags),
                _ => (RequestKind::Read, lpn, tags),
            }
        })
        .collect();
    // Burst size trades run time against queue contention; 96 keeps every
    // scheduling policy's decisions observable (deep enough queues that
    // rankings disagree) while the whole suite stays fast.
    for chunk in ops.chunks(96) {
        for &(kind, lpn, tags) in chunk {
            d.submit(kind, lpn, tags);
        }
        d.run();
    }
    d.run();
    d
}

/// Render everything observable into one string: completion stream,
/// controller counters, per-class issue counts, merge counters, array
/// counters and reliability counters.
fn fingerprint(d: &Driver) -> String {
    let mut out = String::new();
    for c in &d.done {
        out.push_str(&format!("{}@{}\n", c.id, c.at.as_nanos()));
    }
    out.push_str(&format!("{:?}\n", d.c.stats()));
    out.push_str(&format!("{:?}\n", d.c.merge_counters()));
    out.push_str(&format!("{:?}\n", d.c.array().counters()));
    out.push_str(&format!("{:?}\n", d.c.reliability()));
    out
}

fn run_fingerprint(mapping: MappingKind, sched: SchedPolicy) -> String {
    fingerprint(&run_workload(mapping, sched, false, ObsConfig::default()))
}

fn schemes() -> Vec<(&'static str, MappingKind)> {
    vec![
        ("page_map", MappingKind::PageMap),
        ("dftl", MappingKind::Dftl { cmt_entries: 24 }),
        (
            "hybrid",
            MappingKind::Hybrid {
                log_blocks: 3,
                merge: MergePolicy::Fifo,
            },
        ),
    ]
}

fn all_policies() -> Vec<(&'static str, SchedPolicy)> {
    vec![
        ("fifo", SchedPolicy::Fifo),
        ("class_priority", SchedPolicy::reads_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
        ("tag_priority", SchedPolicy::TagPriority),
    ]
}

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a digests of the spans-on fingerprint (counters plus
/// `Obs::render_spans`) per `scheme/policy/faults`. Regenerate only for a
/// change that is meant to alter simulated behaviour: the failure message
/// prints the full table.
const GOLDEN: [(&str, u64); 30] = [
    ("page_map/fifo/off", 0x8a3015c20f21fb95),
    ("page_map/fifo/on", 0x5fd00d2b53832700),
    ("page_map/class_priority/off", 0xf19cfaf6975e3d87),
    ("page_map/class_priority/on", 0x0a162583f4c478cb),
    ("page_map/edf/off", 0xf19cfaf6975e3d87),
    ("page_map/edf/on", 0x0a162583f4c478cb),
    ("page_map/fair/off", 0xf19cfaf6975e3d87),
    ("page_map/fair/on", 0xb8e882e22aa4f92c),
    ("page_map/tag_priority/off", 0x948373165faca6ad),
    ("page_map/tag_priority/on", 0x7f887408c2c9048b),
    ("dftl/fifo/off", 0x424ab5cbf68a372e),
    ("dftl/fifo/on", 0x9fd5141fae3701cb),
    ("dftl/class_priority/off", 0xbc10c505e031f84f),
    ("dftl/class_priority/on", 0x439140e64543b52b),
    ("dftl/edf/off", 0x1d5393dd25012bcf),
    ("dftl/edf/on", 0x97d37783d521bd3d),
    ("dftl/fair/off", 0x9400c8f119c0eca6),
    ("dftl/fair/on", 0x6d75e29e7523528b),
    ("dftl/tag_priority/off", 0x1e19930d90d64d6e),
    ("dftl/tag_priority/on", 0xa9a516bd0d38c8f9),
    ("hybrid/fifo/off", 0x10379b935a48bc4c),
    ("hybrid/fifo/on", 0xac4df9293fb3c444),
    ("hybrid/class_priority/off", 0x721310317da5e7f3),
    ("hybrid/class_priority/on", 0x1e177221a565f616),
    ("hybrid/edf/off", 0x089462fba921537d),
    ("hybrid/edf/on", 0x1e177221a565f616),
    ("hybrid/fair/off", 0xa0f48f8a8156f8df),
    ("hybrid/fair/on", 0x652cfe4c0e7ead4a),
    ("hybrid/tag_priority/off", 0x93ab14f0c6fe3471),
    ("hybrid/tag_priority/on", 0xf6d6063a1c781874),
];

#[test]
fn golden_fingerprints_match_pinned_digests() {
    let mut actual = Vec::new();
    for (scheme, mapping) in schemes() {
        for (policy, sched) in all_policies() {
            for faults in [false, true] {
                let d = run_workload(mapping, sched.clone(), faults, SPANS_ON);
                let obs = d.c.obs().expect("spans enabled");
                assert_eq!(obs.dropped(), 0, "span ring too small for the fingerprint");
                let print = fingerprint(&d) + &obs.render_spans(usize::MAX);
                let label = format!("{scheme}/{policy}/{}", if faults { "on" } else { "off" });
                actual.push((label, fnv1a(&print)));
            }
        }
    }
    let pinned: Vec<(String, u64)> = GOLDEN.iter().map(|&(l, h)| (l.to_string(), h)).collect();
    if actual != pinned {
        let table: String = actual
            .iter()
            .map(|(l, h)| format!("    ({l:?}, {h:#018x}),\n"))
            .collect();
        panic!("golden fingerprint digests moved; actual table:\n{table}");
    }
}

/// FNV-1a digests of the spans-on fingerprint per `scheme/faults` with
/// periodic mapping checkpoints and a write buffer on — paths the
/// [`GOLDEN`] matrix never reaches: checkpoint programs, retired-slot
/// erases (and reserved-block replacement under faults) and background
/// flushes. Regenerate only for a change meant to alter simulated
/// behaviour.
const GOLDEN_CKPT_BUFFER: [(&str, u64); 6] = [
    ("page_map/off", 0x27e5ec8696f5f904),
    ("page_map/on", 0x1bff02ef1422977c),
    ("dftl/off", 0xb96e733d01c53e92),
    ("dftl/on", 0x5c30f7f2ec6b9838),
    ("hybrid/off", 0x2ac85776b829c80c),
    ("hybrid/on", 0x0bfc15108fe7d114),
];

#[test]
fn checkpoint_and_write_buffer_fingerprints_match_pinned_digests() {
    let mut actual = Vec::new();
    for (scheme, mapping) in schemes() {
        for faults in [false, true] {
            let d = drive(ControllerConfig {
                checkpoint_interval_programs: 64,
                write_buffer_pages: 16,
                ..workload_config(mapping, SchedPolicy::Fifo, faults, SPANS_ON)
            });
            let label = format!("{scheme}/{}", if faults { "on" } else { "off" });
            // The digest only guards these paths if the run takes them.
            let s = d.c.stats();
            assert!(
                s.checkpoints_committed >= 2,
                "{label}: no checkpoint slot was retired ({} commits)",
                s.checkpoints_committed
            );
            let flushes = d.c.write_buffer().expect("buffer on").flushes_started;
            assert!(flushes > 0, "{label}: the write buffer never flushed");
            let obs = d.c.obs().expect("spans enabled");
            assert_eq!(obs.dropped(), 0, "span ring too small for the fingerprint");
            let print = fingerprint(&d) + &obs.render_spans(usize::MAX);
            actual.push((label, fnv1a(&print)));
        }
    }
    let pinned: Vec<(String, u64)> = GOLDEN_CKPT_BUFFER
        .iter()
        .map(|&(l, h)| (l.to_string(), h))
        .collect();
    if actual != pinned {
        let table: String = actual
            .iter()
            .map(|(l, h)| format!("    ({l:?}, {h:#018x}),\n"))
            .collect();
        panic!("checkpoint/write-buffer digests moved; actual table:\n{table}");
    }
}

#[test]
fn hybrid_runs_are_byte_identical() {
    let mapping = MappingKind::Hybrid {
        log_blocks: 3,
        merge: MergePolicy::Fifo,
    };
    let a = run_fingerprint(mapping, SchedPolicy::Fifo);
    let b = run_fingerprint(mapping, SchedPolicy::Fifo);
    assert!(a == b, "hybrid run fingerprints diverged");
    assert!(a.contains("merge"), "fingerprint should include counters");
}

#[test]
fn all_schemes_run_deterministically() {
    for mapping in [
        MappingKind::PageMap,
        MappingKind::Dftl { cmt_entries: 24 },
        MappingKind::Hybrid {
            log_blocks: 4,
            merge: MergePolicy::MinValid,
        },
    ] {
        let a = run_fingerprint(mapping, SchedPolicy::Fifo);
        let b = run_fingerprint(mapping, SchedPolicy::Fifo);
        assert!(a == b, "{mapping:?} fingerprints diverged");
    }
}

#[test]
fn all_sched_policies_run_deterministically() {
    // Every policy, against the mapping with the most ordering hazards
    // (hybrid: merges, fillers, erases compete with app IO) and the page
    // map (GC + WL). A silent reorder in the ready-queue dispatch shows
    // up as a fingerprint mismatch between repeated runs.
    for mapping in [
        MappingKind::PageMap,
        MappingKind::Hybrid {
            log_blocks: 3,
            merge: MergePolicy::Fifo,
        },
    ] {
        for (name, policy) in all_policies() {
            let a = run_fingerprint(mapping, policy.clone());
            let b = run_fingerprint(mapping, policy.clone());
            assert!(a == b, "{mapping:?}/{name} fingerprints diverged");
        }
    }
}

#[test]
fn observability_never_perturbs_the_schedule() {
    // The span collector is a pure recorder: it schedules no events,
    // consults no RNG and steers no control flow, so the fixed-seed
    // fingerprint (completions, counters) of an instrumented run must be
    // byte-identical to the uninstrumented one — across every mapping
    // scheme, with and without the fault model.
    for (_, mapping) in schemes() {
        for faults in [false, true] {
            let off = fingerprint(&run_workload(
                mapping,
                SchedPolicy::Fifo,
                faults,
                ObsConfig::default(),
            ));
            let with = fingerprint(&run_workload(mapping, SchedPolicy::Fifo, faults, SPANS_ON));
            assert!(
                off == with,
                "{mapping:?}/faults={faults}: enabling observability changed the simulation"
            );
        }
    }
}

#[test]
fn sched_policies_actually_differ() {
    // Sanity for the test itself: if every policy produced the same
    // fingerprint the cross-product above would be vacuous (e.g. tags
    // stripped, or ready-queues collapsing policy distinctions).
    let prints: Vec<String> = all_policies()
        .into_iter()
        .map(|(_, p)| run_fingerprint(MappingKind::PageMap, p))
        .collect();
    let distinct: std::collections::BTreeSet<&String> = prints.iter().collect();
    // On this mix reads are the minority class, so reads-first,
    // EDF-with-default-deadlines and Fair legitimately converge on the
    // same schedule; FIFO and TagPriority must still disagree with them
    // and each other.
    assert!(
        distinct.len() >= 3,
        "expected scheduling policies to produce distinct schedules, got {} distinct of {}",
        distinct.len(),
        prints.len()
    );
}
