//! Media-fault property suite: the controller under an injected-fault
//! flash array.
//!
//! Three families of guarantees:
//!
//! * **Determinism.** The fault model draws from per-op hashes, not a
//!   shared RNG stream: a fixed-seed faulty run is byte-identical across
//!   repeats, exactly like a fault-free one. (`FAULTS=on` widens the
//!   matrix to every scheme × policy — the CI fault-matrix job sets it.)
//! * **No silent loss.** Every acknowledged write either remains mapped
//!   to a valid page or its logical page appears in the controller's
//!   lost-data ledger. Program failures remap in flight; uncorrectable
//!   reads are ledgered — nothing just vanishes.
//! * **Structural invariants.** `check_invariants` holds after heavy
//!   churn with failures injected, for every mapping scheme, and across
//!   a power-cut + remount of a medium that already carries grown bad
//!   blocks (the wear-out × recovery composition).

use std::collections::{BTreeMap, BTreeSet};

use eagletree_controller::{
    Completion, Controller, ControllerConfig, IoTags, MappingKind, MergePolicy, RecoveryMode,
    RequestKind, SchedPolicy, ScrubConfig, SsdRequest,
};
use eagletree_core::{SimRng, SimTime};
use eagletree_flash::{FaultConfig, Geometry, PageState, TimingSpec};

/// Widen sweeps when the CI fault-matrix job sets `FAULTS=on`.
fn full_matrix() -> bool {
    std::env::var("FAULTS").is_ok_and(|v| v == "on")
}

struct Driver {
    c: Controller,
    now: SimTime,
    next_id: u64,
    done: Vec<Completion>,
    writes: BTreeMap<u64, u64>,
    acked: BTreeSet<u64>,
}

impl Driver {
    fn new(c: Controller) -> Self {
        Driver {
            c,
            now: SimTime::ZERO,
            next_id: 0,
            done: Vec::new(),
            writes: BTreeMap::new(),
            acked: BTreeSet::new(),
        }
    }

    fn submit(&mut self, kind: RequestKind, lpn: u64, tags: IoTags) {
        let id = self.next_id;
        self.next_id += 1;
        if kind == RequestKind::Write {
            self.writes.insert(id, lpn);
        }
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
            for comp in self.c.advance(t) {
                if let Some(&lpn) = self.writes.get(&comp.id) {
                    self.acked.insert(lpn);
                }
                self.done.push(comp);
            }
        }
        let tail = self.c.advance(self.now);
        self.done.extend(tail);
    }
}

/// A fault profile hot enough that a 2k-op run on the tiny array sees
/// program failures, transient and retiring erase failures, ECC retries
/// and the odd uncorrectable read — without starving the free pool.
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

/// Mild read-error curve for the remount test: the mount-time OOB probe
/// has no retry ladder, so `raw_bits_base` close to the ECC strength
/// would shed a tenth of the mappings at scan time (by design — but this
/// test asserts survival, so it keeps reads clean and makes programs and
/// erases hostile instead).
fn remount_faults() -> FaultConfig {
    FaultConfig {
        program_fail_base: 0.02,
        erase_fail_base: 0.15,
        raw_bits_base: 1.0,
        ..FaultConfig::default()
    }
}

fn faulty_cfg(mapping: MappingKind, sched: SchedPolicy) -> ControllerConfig {
    ControllerConfig {
        mapping,
        sched,
        fault: Some(test_faults()),
        scrub: Some(ScrubConfig {
            check_every_ops: 128,
            read_disturb_threshold: 8,
            retention_threshold_s: 0.05,
            max_inflight: 1,
        }),
        ..ControllerConfig::default()
    }
}

/// Fixed-seed workload against a faulty array: fill the device once
/// sequentially, then hammer a hot quarter of the space with mixed
/// writes/reads — the fill puts GC (and hence erases) on the critical
/// path, so every fault domain actually gets exercised. Returns the
/// driver for property checks.
fn churn(cfg: ControllerConfig, ops: usize) -> Driver {
    let mut d = Driver::new(Controller::new(Geometry::tiny(), TimingSpec::slc(), cfg).unwrap());
    let logical = d.c.logical_pages();
    let mut rng = SimRng::new(0xFA01_77E5);
    let hot = (logical / 4).max(1);
    let script: Vec<(RequestKind, u64, IoTags)> = (0..logical)
        .map(|lpn| (RequestKind::Write, lpn, IoTags::none()))
        .chain((0..ops).map(|i| {
            let lpn = rng.gen_range(hot);
            let tags = if i % 5 == 0 {
                IoTags::none().with_priority((i % 3) as u8)
            } else {
                IoTags::none()
            };
            // Writes + reads only: a trim legitimately unmaps its page,
            // which would muddy the acked-write survival property.
            match i % 10 {
                0..=6 => (RequestKind::Write, lpn, tags),
                _ => (RequestKind::Read, lpn, tags),
            }
        }))
        .collect();
    for chunk in script.chunks(96) {
        for &(kind, lpn, tags) in chunk {
            d.submit(kind, lpn, tags);
        }
        d.run();
    }
    d.run();
    d
}

/// Everything observable, rendered to one string (the determinism
/// fingerprint), reliability counters included.
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

fn schemes() -> Vec<MappingKind> {
    vec![
        MappingKind::PageMap,
        MappingKind::Dftl { cmt_entries: 24 },
        MappingKind::Hybrid {
            log_blocks: 3,
            merge: MergePolicy::Fifo,
        },
    ]
}

fn policies() -> Vec<(&'static str, SchedPolicy)> {
    vec![
        ("fifo", SchedPolicy::Fifo),
        ("class_priority", SchedPolicy::reads_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
        ("tag_priority", SchedPolicy::TagPriority),
    ]
}

#[test]
fn faulty_runs_are_byte_identical_across_repeats() {
    for mapping in schemes() {
        let pols = if full_matrix() {
            policies()
        } else {
            vec![policies().remove(0)]
        };
        for (name, policy) in pols {
            let a = fingerprint(&churn(faulty_cfg(mapping, policy.clone()), 2000));
            let b = fingerprint(&churn(faulty_cfg(mapping, policy), 2000));
            assert!(
                a == b,
                "{mapping:?}/{name}: faulty fingerprints diverged across repeats"
            );
        }
    }
}

#[test]
fn faults_actually_fired_and_reliability_reports_them() {
    let d = churn(faulty_cfg(MappingKind::PageMap, SchedPolicy::Fifo), 2000);
    let rel = d.c.reliability().expect("fault model installed");
    assert!(rel.reads_sampled > 0);
    assert!(rel.corrected_bits > 0, "error curve never produced raw bits");
    assert!(rel.read_retries > 0, "ECC never needed a retry: {rel:?}");
    assert!(rel.program_fails > 0, "no program failures injected: {rel:?}");
    assert_eq!(
        rel.program_remaps, rel.program_fails,
        "every program failure must be remapped (none absorbed on the app path)"
    );
    assert!(rel.erase_fails > 0, "no erase failures injected: {rel:?}");
    assert!(rel.uber >= 0.0 && rel.uber.is_finite());
    // Scrubbing ran against the disturb the read-heavy mix built up.
    assert!(rel.scrub_refreshes > 0, "scrubber never refreshed: {rel:?}");
}

#[test]
fn no_acknowledged_write_is_lost_without_a_ledger_entry() {
    for mapping in schemes() {
        let d = churn(faulty_cfg(mapping, SchedPolicy::Fifo), 2000);
        let lost: BTreeSet<u64> = d.c.lost_data().collect();
        let g = *d.c.array().geometry();
        let mut verified = 0u64;
        for &lpn in &d.acked {
            let survives = d.c.peek_mapping(lpn).is_some_and(|ppn| {
                d.c.array().page_state(g.page_at(ppn)) == PageState::Valid
            });
            assert!(
                survives || lost.contains(&lpn),
                "{mapping:?}: acked lpn {lpn} neither mapped-valid nor ledgered"
            );
            if survives {
                verified += 1;
            }
        }
        assert!(verified > 0, "{mapping:?}: nothing verified");
        // The ledger only ever names logical pages the device actually
        // served — it cannot invent losses.
        let logical = d.c.logical_pages();
        for &lpn in &lost {
            assert!(lpn < logical, "{mapping:?}: ledgered out-of-range lpn {lpn}");
        }
    }
}

#[test]
fn ftl_invariants_hold_under_injected_failures() {
    for mapping in schemes() {
        let d = churn(faulty_cfg(mapping, SchedPolicy::Fifo), 2000);
        d.c.check_invariants();
        let rel = d.c.reliability().unwrap();
        assert!(
            rel.program_fails + rel.erase_fails > 0,
            "{mapping:?}: the invariant check never saw a fault"
        );
    }
}

#[test]
fn remount_tolerates_grown_bad_blocks() {
    // Satellite wear-out × recovery composition: churn a faulty device
    // until blocks have actually been retired as grown bad, cut power,
    // and remount the scarred medium under both recovery modes.
    for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
        let cfg = ControllerConfig {
            checkpoint_interval_programs: 128,
            fault: Some(remount_faults()),
            ..faulty_cfg(MappingKind::PageMap, SchedPolicy::Fifo)
        };
        let mut d = churn(cfg.clone(), 2500);
        let rel = d.c.reliability().unwrap();
        assert!(
            rel.grown_bad_blocks > 0,
            "churn must retire blocks before the cut: {rel:?}"
        );
        let acked = std::mem::take(&mut d.acked);
        let pre_lost: BTreeSet<u64> = d.c.lost_data().collect();
        let image = d.c.power_cut(d.now);
        let (c2, rep) = Controller::remount(image, cfg, mode).expect("remount scarred medium");
        c2.check_invariants();
        // The wear scars survive the remount.
        let rel2 = c2.reliability().expect("fault model carried across");
        assert_eq!(rel2.grown_bad_blocks, rel.grown_bad_blocks);
        // Acked writes still survive (or were already ledgered pre-cut).
        let g = *c2.array().geometry();
        for &lpn in &acked {
            let survives = c2.peek_mapping(lpn).is_some_and(|ppn| {
                let addr = g.page_at(ppn);
                c2.array().page_state(addr) == PageState::Valid && !c2.array().is_torn(addr)
            });
            assert!(
                survives || pre_lost.contains(&lpn),
                "{mode:?}: acked lpn {lpn} lost across remount of scarred medium"
            );
        }
        // The report is coherent; uncorrectable OOB reads (if any) were
        // skipped, not fatal.
        assert!(rep.oob_scanned > 0);
        assert!(rep.mount_time.as_nanos() > 0);
    }
}

#[test]
fn disabled_fault_model_reports_nothing() {
    let d = churn(ControllerConfig::default(), 500);
    assert!(d.c.reliability().is_none());
    assert_eq!(d.c.lost_data().count(), 0);
    assert!(d.c.array().fault().is_none());
}
