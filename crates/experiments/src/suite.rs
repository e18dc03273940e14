//! The predefined experiment suite: E1–E27 and the G1 game.
//!
//! Each experiment reproduces one question the paper poses (see the
//! per-experiment index in DESIGN.md, and EXPERIMENTS.md for measured
//! results). All experiments are deterministic for a fixed [`Scale`].

use eagletree_controller::{
    Controller, ControllerConfig, IoTags, MappingKind, MergePolicy, RecoveryMode, RequestKind,
    SchedPolicy, ScrubConfig, SsdRequest, TemperatureMode, WriteAllocPolicy,
};
use eagletree_core::{SimDuration, SimRng, SimTime};
use eagletree_flash::{FaultConfig, Geometry, TimingSpec};
use eagletree_os::{Os, OsSchedPolicy, QosPolicy, Workload};
use eagletree_workloads::{
    characterize, precondition::sequential_fill, ChunkedSource, GraceHashJoin, MixedGen,
    MsrCsvSource, Pumped, RandReadGen, RandWriteGen, Region, Remap, ReplayThread, SeqWriteGen,
    SynthCsv, SynthShape, SyntheticTrace, TenantProfile, ZipfGen, ZipfKind,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::experiment::{Experiment, Scale};
use crate::metrics::{measure, measure_since, snapshot, Row, Table};
use crate::setup::Setup;

/// All predefined experiments, in index order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment::new("E1", "SSD parallelism: channels × LUNs", "§1-Q1 / Fig 1 hardware design space", e1_parallelism),
        Experiment::new("E2", "OS queue depth", "§2.1 'applications' IO queue size'", e2_queue_depth),
        Experiment::new("E3", "GC greediness", "§2.2 GC trigger policy", e3_gc_greediness),
        Experiment::new("E4", "Controller scheduling policies", "§3 'prioritizing reads vs writes is not always easy'", e4_ctrl_sched),
        Experiment::new("E5", "Internal-op priority", "§1-Q2 GC/WL interference", e5_internal_priority),
        Experiment::new("E6", "Mapping schemes: page map vs DFTL vs hybrid log-block", "§2.2 mapping design space", e6_mapping),
        Experiment::new("E7", "Wear leveling", "§2.2 WL strategies", e7_wear_leveling),
        Experiment::new("E8", "Open interface hints", "§2.2 open interface / §3 appetizers", e8_open_interface),
        Experiment::new("E9", "Advanced commands: copyback & interleaving", "§2.2 hardware advanced commands", e9_advanced_commands),
        Experiment::new("E10", "Grace hash join layouts", "§2.2 application threads", e10_grace_join),
        Experiment::new("E11", "OS scheduler fairness", "§2.2 OS scheduler", e11_os_fairness),
        Experiment::new("E12", "SLC vs MLC chips", "§2.2 flash chip type", e12_chip_type),
        Experiment::new("E13", "Battery-backed write buffer", "§2.2 'best usage for battery-backed RAM' / write-buffering module", e13_write_buffer),
        Experiment::new("E14", "Over-provisioning", "§2.2 GC headroom vs exported capacity", e14_overprovisioning),
        Experiment::new("E15", "GC victim selection", "§2.2 GC strategies", e15_victim_policy),
        Experiment::new("E16", "Cached-program pipelining", "§2.2 advanced commands (pipelining)", e16_pipelining),
        Experiment::new("E17", "Hybrid log-block budget sweep", "§2.2 mapping design space (merge costs)", e17_log_budget),
        Experiment::new("E18", "Simulator throughput: events/sec vs geometry × queue depth", "§1 'as fast as the hardware allows' (sweep affordability)", e18_sim_throughput),
        Experiment::new("E19", "Noisy neighbor: reader-tenant tails vs a flooding writer, per QoS policy", "§2.2 OS scheduler × consolidation (tenant isolation)", e19_noisy_neighbor),
        Experiment::new("E20", "QoS design sweep: policy × weights × tenant count", "§1-Q1 design space, extended to the serving side", e20_qos_sweep),
        Experiment::new("E21", "Crash recovery: mount time vs checkpoint interval × device fill", "§2.2 controller modules, extended to crash consistency (durability vs mount-time trade-off)", e21_mount_time),
        Experiment::new("E22", "Crash-point sweep during GC/merge: no acknowledged write lost", "§1-Q2 internal ops × crash atomicity", e22_crash_sweep),
        Experiment::new("E23", "Trace replay vs characterizer-matched synthetic, per mapping scheme", "§2.1 'real-world applications' — production trace ingestion", e23_trace_vs_synth),
        Experiment::new("E24", "QoS isolation under a replayed bursty trace neighbor", "§2.2 OS scheduler × consolidation, driven by recorded traffic", e24_replayed_noisy_neighbor),
        Experiment::new("E25", "Media reliability: UBER, ECC retries and read tails vs device age, per scheme, ± scrubbing", "§2.2 controller modules, extended to media reliability (fault injection)", e25_reliability_aging),
        Experiment::new("E26", "Scrub interference: foreground tenant tails vs scrub aggressiveness", "§1-Q2 internal ops × QoS, extended to background scrubbing", e26_scrub_interference),
        Experiment::new("E27", "Tail forensics: p999 outliers bucketed by dominant latency stage", "§1-Q2 interference, attributed per stage via lifecycle spans", e27_tail_forensics),
        Experiment::new("G1", "The scheduling game", "§3 demonstration game", g1_game),
    ]
}

/// Look up an experiment by id (case-insensitive).
pub fn by_id(id: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.id.eq_ignore_ascii_case(id))
}

// ---------------------------------------------------------------------
// helpers

/// Run `measured` workloads after sequentially filling the logical space;
/// returns `(os, tids, rows-ready Measured)` with controller counters
/// measured as deltas over the steady phase only.
fn run_preconditioned(
    setup: &Setup,
    measured: Vec<Box<dyn Workload>>,
) -> (Os, Vec<usize>) {
    let mut os = setup.build();
    os.add_thread(sequential_fill(32));
    os.run();
    let tids: Vec<usize> = measured.into_iter().map(|w| os.add_thread(w)).collect();
    (os, tids)
}

fn finish_point(mut os: Os, tids: &[usize], label: String) -> Row {
    let base = snapshot(&os);
    os.run();
    let m = measure_since(&os, tids, &base);
    Row::new(label)
        .push("iops", m.iops)
        .push("read_us", m.read_mean_us)
        .push("read_p99_us", m.read_p99_us)
        .push("read_sd_us", m.read_stddev_us)
        .push("write_us", m.write_mean_us)
        .push("write_p99_us", m.write_p99_us)
        .push("write_sd_us", m.write_stddev_us)
        .push("WA", m.write_amplification)
        .push("gc_erases", m.gc_erases as f64)
}

// ---------------------------------------------------------------------
// E1 — parallelism

fn e1_parallelism(scale: Scale) -> Table {
    let mut t = Table::new(
        "E1",
        "Random-write IOPS vs channels × LUNs/channel",
        "geometry",
    );
    let dims = scale.thin(&[1u32, 2, 4, 8]);
    let ios = scale.ios(8192);
    for &ch in &dims {
        for &luns in &dims {
            let mut setup = Setup::demo();
            setup.geometry = Geometry {
                channels: ch,
                luns_per_channel: luns,
                planes_per_lun: 1,
                blocks_per_plane: 64,
                pages_per_block: 32,
                page_size: 4096,
            };
            setup.os.queue_depth = 128;
            let mut os = setup.build();
            let w = Pumped::new(RandWriteGen::new(Region::whole(), ios), 128, 0xE1)
                .named("rand-writer");
            let tid = os.add_thread(Box::new(w));
            let base = snapshot(&os);
            os.run();
            let m = measure_since(&os, &[tid], &base);
            t.rows.push(
                Row::new(format!("{ch}x{luns}"))
                    .push("luns_total", (ch * luns) as f64)
                    .push("iops", m.iops)
                    .push("write_us", m.write_mean_us),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// E2 — queue depth

fn e2_queue_depth(scale: Scale) -> Table {
    let mut t = Table::new("E2", "Random-read IOPS and latency vs OS queue depth", "qd");
    let ios = scale.ios(8192);
    for qd in scale.thin(&[1usize, 2, 4, 8, 16, 32, 64]) {
        let mut setup = Setup::small();
        setup.os.queue_depth = qd;
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(RandReadGen::new(Region::whole(), ios), 256, 0xE2).named("reader"),
            )],
        );
        t.rows.push(finish_point(os, &tids, format!("{qd}")));
    }
    t
}

// ---------------------------------------------------------------------
// E3 — GC greediness

fn e3_gc_greediness(scale: Scale) -> Table {
    let mut t = Table::new(
        "E3",
        "Steady-state overwrite: throughput / WA / tails vs GC greediness",
        "greediness",
    );
    for g in scale.thin(&[1u32, 2, 3, 4, 6, 8]) {
        let mut setup = Setup::small();
        setup.ctrl.gc.greediness = g;
        setup.ctrl.wl.static_enabled = false;
        let ios = scale.ios(setup.logical_pages() * 3);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(RandWriteGen::new(Region::whole(), ios), 32, 0xE3)
                    .named("overwriter"),
            )],
        );
        t.rows.push(finish_point(os, &tids, format!("{g}")));
    }
    t
}

// ---------------------------------------------------------------------
// E4 — controller scheduling policies

fn policies() -> Vec<(&'static str, SchedPolicy)> {
    vec![
        ("fifo", SchedPolicy::Fifo),
        ("reads_first", SchedPolicy::reads_first()),
        ("writes_first", SchedPolicy::writes_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
    ]
}

fn e4_ctrl_sched(scale: Scale) -> Table {
    let mut t = Table::new(
        "E4",
        "Mixed 50/50 read-write under controller scheduling policies",
        "policy",
    );
    let pols = scale.thin(&policies());
    for (name, pol) in pols {
        let mut setup = Setup::small();
        setup.ctrl.sched = pol;
        setup.ctrl.wl.static_enabled = false;
        setup.os.queue_depth = 64;
        let ios = scale.ios(setup.logical_pages() * 2);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(MixedGen::new(Region::whole(), ios, 0.5), 64, 0xE4).named("mixed"),
            )],
        );
        t.rows.push(finish_point(os, &tids, name.to_string()));
    }
    t
}

// ---------------------------------------------------------------------
// E5 — internal-op (GC) priority

fn e5_internal_priority(scale: Scale) -> Table {
    let mut t = Table::new(
        "E5",
        "Reader tail latency vs internal-op priority under overwrite load",
        "gc_priority",
    );
    let variants: Vec<(&str, SchedPolicy)> = vec![
        ("internal_low", SchedPolicy::app_first()),
        ("equal_fifo", SchedPolicy::Fifo),
        ("internal_high", SchedPolicy::internal_first()),
    ];
    for (name, pol) in scale.thin(&variants) {
        let mut setup = Setup::small();
        setup.ctrl.sched = pol;
        setup.ctrl.wl.static_enabled = false;
        setup.os.queue_depth = 32;
        let logical = setup.logical_pages();
        let w_ios = scale.ios(logical * 2);
        let r_ios = scale.ios(logical);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![
                Box::new(
                    Pumped::new(RandWriteGen::new(Region::whole(), w_ios), 16, 0xE5)
                        .named("overwriter"),
                ),
                Box::new(
                    Pumped::new(RandReadGen::new(Region::whole(), r_ios), 4, 0x5E)
                        .named("reader"),
                ),
            ],
        );
        // Report the reader's view (tids[1]) plus global WA.
        let base = snapshot(&os);
        let mut os = os;
        os.run();
        let m = measure_since(&os, &[tids[1]], &base);
        let all = measure_since(&os, &tids, &base);
        t.rows.push(
            Row::new(name.to_string())
                .push("read_us", m.read_mean_us)
                .push("read_p99_us", m.read_p99_us)
                .push("read_sd_us", m.read_stddev_us)
                .push("total_iops", all.iops)
                .push("WA", all.write_amplification),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E6 — mapping schemes

fn e6_mapping(scale: Scale) -> Table {
    let mut t = Table::new(
        "E6",
        "Zipf mixed workload: page map vs DFTL (CMT coverage) vs hybrid (log budget)",
        "mapping",
    );
    let coverages = scale.thin(&[1u64, 5, 10, 25, 50, 100]);
    let mut variants: Vec<(String, MappingKind)> =
        vec![("page_map".into(), MappingKind::PageMap)];
    let logical = Setup::small().logical_pages();
    for c in coverages {
        variants.push((
            format!("dftl_{c}%"),
            MappingKind::Dftl {
                cmt_entries: ((logical * c) / 100).max(8) as usize,
            },
        ));
    }
    for b in scale.thin(&[4usize, 16]) {
        variants.push((
            format!("hybrid_{b}"),
            MappingKind::Hybrid {
                log_blocks: b,
                merge: MergePolicy::Fifo,
            },
        ));
    }
    for (name, mapping) in variants {
        let mut setup = Setup::small();
        setup.ctrl.mapping = mapping;
        setup.ctrl.wl.static_enabled = false;
        let ios = scale.ios(logical * 2);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(
                    ZipfGen::new(Region::whole(), ios, 0.99, ZipfKind::Mixed(50)),
                    32,
                    0xE6,
                )
                .named("zipf-mixed"),
            )],
        );
        let base = snapshot(&os);
        let mut os = os;
        os.run();
        let m = measure_since(&os, &tids, &base);
        let map_ram_kb = os
            .controller()
            .memory()
            .reserved_for(eagletree_flash::MemoryKind::Ram, "mapping")
            .unwrap_or(0) as f64
            / 1024.0;
        t.rows.push(
            Row::new(name)
                .push("iops", m.iops)
                .push("read_us", m.read_mean_us)
                .push("write_us", m.write_mean_us)
                .push("map_ram_kb", map_ram_kb)
                .push("map_fetches", m.mapping_fetches as f64)
                .push("map_writebacks", m.mapping_writebacks as f64)
                .push("merges", (m.merges.switch_merges + m.merges.partial_merges
                    + m.merges.full_merges) as f64)
                .push("WA", m.write_amplification),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E7 — wear leveling

fn e7_wear_leveling(scale: Scale) -> Table {
    let mut t = Table::new(
        "E7",
        "Skewed overwrite: wear distribution vs WL strategy",
        "wl_mode",
    );
    let variants: Vec<(&str, bool, bool, TemperatureMode)> = vec![
        ("off", false, false, TemperatureMode::Off),
        ("static", true, false, TemperatureMode::Off),
        ("static+dynamic", true, true, TemperatureMode::Detector),
    ];
    for (name, stat, dyn_, temp) in scale.thin(&variants) {
        let mut setup = Setup::small();
        setup.ctrl.wl.static_enabled = stat;
        setup.ctrl.wl.dynamic_enabled = dyn_;
        setup.ctrl.wl.check_every_erases = 16;
        setup.ctrl.wl.young_delta = 4;
        // The conservative default idle factor only fires on much longer
        // runs; sweep with an eager setting so the experiment shows the
        // static-WL trade-off at this scale.
        setup.ctrl.wl.idle_factor = 0.5;
        setup.ctrl.temperature = temp;
        let logical = setup.logical_pages();
        let ios = scale.ios(logical * 6);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(
                    ZipfGen::new(Region::whole(), ios, 1.1, ZipfKind::Writes),
                    32,
                    0xE7,
                )
                .named("zipf-writer"),
            )],
        );
        let base = snapshot(&os);
        let mut os = os;
        os.run();
        let m = measure_since(&os, &tids, &base);
        t.rows.push(
            Row::new(name.to_string())
                .push("iops", m.iops)
                .push("WA", m.write_amplification)
                .push("wear_sd", m.wear_stddev)
                .push("wear_max", m.wear_max as f64)
                .push("wl_erases", m.wl_erases as f64),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E8 — open interface

fn e8_open_interface(scale: Scale) -> Table {
    let mut t = Table::new(
        "E8",
        "Open-interface hints vs the locked block device",
        "hints",
    );
    #[derive(Clone, Copy, PartialEq)]
    enum Mode {
        Closed,
        Priority,
        Temperature,
        Locality,
    }
    let variants = [
        ("closed", Mode::Closed),
        ("priority", Mode::Priority),
        ("temperature", Mode::Temperature),
        ("locality", Mode::Locality),
    ];
    for (name, mode) in scale.thin(&variants) {
        let mut setup = Setup::small();
        setup.ctrl.wl.static_enabled = false;
        setup.os.queue_depth = 32;
        setup.os.open_interface = mode != Mode::Closed;
        match mode {
            Mode::Priority => setup.ctrl.sched = SchedPolicy::TagPriority,
            Mode::Temperature => setup.ctrl.temperature = TemperatureMode::Hints,
            Mode::Locality => setup.ctrl.honor_locality = true,
            Mode::Closed => {}
        }
        let logical = setup.logical_pages();
        let w_ios = scale.ios(logical * 3);
        let r_ios = scale.ios(logical / 2);
        // Writer: skewed updates, hinted hot/cold + per-group locality.
        let writer_gen = ZipfGen::new(Region::whole(), w_ios, 0.99, ZipfKind::Writes)
            .with_temperature_hints(0.2);
        let mut writer =
            Pumped::new(writer_gen, 16, 0xE8).named("tenant-writer");
        if mode == Mode::Locality {
            writer = writer.tagged(IoTags::none().with_locality(1));
        }
        // Reader: latency sensitive, tagged urgent.
        let reader = Pumped::new(RandReadGen::new(Region::whole(), r_ios), 4, 0x8E)
            .named("urgent-reader")
            .tagged(IoTags::none().with_priority(0));
        let (os, tids) =
            run_preconditioned(&setup, vec![Box::new(writer), Box::new(reader)]);
        let base = snapshot(&os);
        let mut os = os;
        os.run();
        let reader_m = measure_since(&os, &[tids[1]], &base);
        let all = measure_since(&os, &tids, &base);
        t.rows.push(
            Row::new(name.to_string())
                .push("total_iops", all.iops)
                .push("WA", all.write_amplification)
                .push("reader_p99_us", reader_m.read_p99_us)
                .push("reader_us", reader_m.read_mean_us),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E9 — advanced commands

fn e9_advanced_commands(scale: Scale) -> Table {
    let mut t = Table::new(
        "E9",
        "GC-heavy overwrite: copy-back × channel interleaving",
        "commands",
    );
    let variants = [
        ("neither", false, false),
        ("copyback", true, false),
        ("interleave", false, true),
        ("both", true, true),
    ];
    for (name, cb, il) in scale.thin(&variants) {
        let mut setup = Setup::small();
        setup.ctrl.gc.use_copyback = cb;
        setup.ctrl.interleaving = il;
        setup.ctrl.wl.static_enabled = false;
        let ios = scale.ios(setup.logical_pages() * 3);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(RandWriteGen::new(Region::whole(), ios), 32, 0xE9)
                    .named("overwriter"),
            )],
        );
        t.rows.push(finish_point(os, &tids, name.to_string()));
    }
    t
}

// ---------------------------------------------------------------------
// E10 — Grace hash join

fn e10_grace_join(scale: Scale) -> Table {
    let mut t = Table::new(
        "E10",
        "Grace hash join phases vs write-allocation policy",
        "alloc",
    );
    let variants = [
        ("round_robin", WriteAllocPolicy::RoundRobin),
        ("least_utilized", WriteAllocPolicy::LeastUtilized),
        ("striping", WriteAllocPolicy::Striping),
    ];
    for (name, alloc) in scale.thin(&variants) {
        let mut setup = Setup::small();
        setup.ctrl.write_alloc = alloc;
        setup.ctrl.wl.static_enabled = false;
        setup.os.queue_depth = 64;
        let logical = setup.logical_pages();
        // Relations sized so inputs + 2x-slack partitions fit.
        let r = (logical / 8).min(scale.ios(1024));
        let s = r;
        let mut os = setup.build();
        let sink = std::rc::Rc::new(std::cell::RefCell::new((None, None)));
        let region_r = Region::new(0, r);
        let region_s = Region::new(r, s);
        let out_len = ((r + s) * 2).div_ceil(8) * 8;
        let region_out = Region::new(r + s, out_len);
        // Pre-write the inputs.
        os.add_thread(eagletree_workloads::precondition::region_fill(region_r, 32));
        os.add_thread(eagletree_workloads::precondition::region_fill(region_s, 32));
        os.run();
        let join = GraceHashJoin::new(region_r, region_s, region_out, 8, 32)
            .with_phase_sink(sink.clone());
        let t0 = os.now();
        let tid = os.add_thread(Box::new(join));
        let base = snapshot(&os);
        os.run();
        let m = measure_since(&os, &[tid], &base);
        let (part, probe) = *sink.borrow();
        let part_ms = part.map_or(0.0, |p: SimTime| p.since(t0).as_millis_f64());
        let probe_ms = probe.map_or(0.0, |p: SimTime| {
            p.since(part.unwrap_or(t0)).as_millis_f64()
        });
        t.rows.push(
            Row::new(name.to_string())
                .push("partition_ms", part_ms)
                .push("probe_ms", probe_ms)
                .push("total_ms", m.makespan_s * 1000.0)
                .push("iops", m.iops),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E11 — OS scheduler fairness

fn e11_os_fairness(scale: Scale) -> Table {
    let mut t = Table::new(
        "E11",
        "Three competing threads under OS dispatch policies",
        "os_policy",
    );
    let variants: Vec<(&str, OsSchedPolicy)> = vec![
        ("fifo", OsSchedPolicy::Fifo),
        ("round_robin", OsSchedPolicy::RoundRobin),
        ("priority_t2", OsSchedPolicy::ThreadPriority(vec![2, 2, 0, 1])),
    ];
    for (name, pol) in scale.thin(&variants) {
        let mut setup = Setup::small();
        setup.os.policy = pol;
        setup.os.queue_depth = 8;
        setup.ctrl.wl.static_enabled = false;
        let logical = setup.logical_pages();
        let ios = scale.ios(logical);
        // Thread 1 (after fill): aggressive writer with a huge window;
        // threads 2 and 3: modest readers.
        let (os, tids) = run_preconditioned(
            &setup,
            vec![
                Box::new(
                    Pumped::new(RandWriteGen::new(Region::whole(), ios), 128, 0xB1)
                        .named("aggressive"),
                ),
                Box::new(
                    Pumped::new(RandReadGen::new(Region::whole(), ios / 2), 4, 0xB2)
                        .named("modest-a"),
                ),
                Box::new(
                    Pumped::new(RandReadGen::new(Region::whole(), ios / 2), 4, 0xB3)
                        .named("modest-b"),
                ),
            ],
        );
        let mut os = os;
        os.run();
        let th: Vec<f64> = tids
            .iter()
            .map(|&t| os.thread_stats(t).throughput_iops())
            .collect();
        // Jain fairness index over per-thread throughput.
        let sum: f64 = th.iter().sum();
        let sumsq: f64 = th.iter().map(|x| x * x).sum();
        let jain = if sumsq == 0.0 {
            0.0
        } else {
            sum * sum / (th.len() as f64 * sumsq)
        };
        t.rows.push(
            Row::new(name.to_string())
                .push("aggressive_iops", th[0])
                .push("modest_a_iops", th[1])
                .push("modest_b_iops", th[2])
                .push("jain", jain),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E12 — chip type

fn e12_chip_type(scale: Scale) -> Table {
    let mut t = Table::new("E12", "Mixed workload on SLC vs MLC flash", "chip");
    for (name, timing) in [("slc", TimingSpec::slc()), ("mlc", TimingSpec::mlc())] {
        let mut setup = Setup::small();
        setup.timing = timing;
        setup.ctrl.wl.static_enabled = false;
        let ios = scale.ios(setup.logical_pages() * 2);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(MixedGen::new(Region::whole(), ios, 0.5), 32, 0xE12).named("mixed"),
            )],
        );
        t.rows.push(finish_point(os, &tids, name.to_string()));
    }
    t
}

// ---------------------------------------------------------------------
// E13 — write buffer

fn e13_write_buffer(scale: Scale) -> Table {
    let mut t = Table::new(
        "E13",
        "Skewed overwrite vs battery-backed write-buffer size",
        "buffer_pages",
    );
    for pages in scale.thin(&[0u64, 16, 64, 256]) {
        let mut setup = Setup::small();
        setup.ctrl.write_buffer_pages = pages;
        setup.ctrl.wl.static_enabled = false;
        let ios = scale.ios(setup.logical_pages() * 3);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(
                    ZipfGen::new(Region::whole(), ios, 0.99, ZipfKind::Writes),
                    32,
                    0xE13,
                )
                .named("zipf-writer"),
            )],
        );
        // Buffered writes complete at RAM speed (zero virtual latency), so
        // IOPS over the completion window is not meaningful; the makespan
        // until the device drains and the flash-side WA are.
        let base = snapshot(&os);
        let mut os = os;
        let t0 = os.now();
        os.run();
        let m = measure_since(&os, &tids, &base);
        t.rows.push(
            Row::new(format!("{pages}"))
                .push("makespan_ms", os.now().since(t0).as_millis_f64())
                .push("WA", m.write_amplification)
                .push("gc_erases", m.gc_erases as f64)
                .push("write_p99_us", m.write_p99_us),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E14 — over-provisioning

fn e14_overprovisioning(scale: Scale) -> Table {
    let mut t = Table::new(
        "E14",
        "Steady-state overwrite vs exported-capacity fraction",
        "logical_frac",
    );
    for frac in scale.thin(&[0.70f64, 0.80, 0.85, 0.90, 0.95]) {
        let mut setup = Setup::small();
        setup.ctrl.logical_capacity = frac;
        setup.ctrl.wl.static_enabled = false;
        let ios = scale.ios(setup.logical_pages() * 3);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(RandWriteGen::new(Region::whole(), ios), 32, 0xE14)
                    .named("overwriter"),
            )],
        );
        t.rows.push(finish_point(os, &tids, format!("{frac:.2}")));
    }
    t
}

// ---------------------------------------------------------------------
// E15 — GC victim selection

fn e15_victim_policy(scale: Scale) -> Table {
    let mut t = Table::new(
        "E15",
        "Hot/cold overwrite under GC victim-selection policies",
        "victim",
    );
    use eagletree_controller::VictimPolicy;
    let variants = [
        ("greedy", VictimPolicy::Greedy),
        ("random", VictimPolicy::Random),
        ("cost_benefit", VictimPolicy::CostBenefit),
    ];
    for (name, victim) in scale.thin(&variants) {
        let mut setup = Setup::small();
        setup.ctrl.gc.victim = victim;
        setup.ctrl.wl.static_enabled = false;
        let ios = scale.ios(setup.logical_pages() * 4);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(
                    ZipfGen::new(Region::whole(), ios, 1.0, ZipfKind::Writes),
                    32,
                    0xE15,
                )
                .named("hotcold-writer"),
            )],
        );
        t.rows.push(finish_point(os, &tids, name.to_string()));
    }
    t
}

// ---------------------------------------------------------------------
// E16 — cached-program pipelining

fn e16_pipelining(scale: Scale) -> Table {
    let mut t = Table::new(
        "E16",
        "Sequential write throughput with and without cached programming",
        "pipelining",
    );
    for (name, on) in [("off", false), ("on", true)] {
        let mut setup = Setup::small();
        setup.ctrl.use_cached_program = on;
        setup.ctrl.wl.static_enabled = false;
        setup.os.queue_depth = 64;
        let ios = scale.ios(setup.logical_pages());
        let mut os = setup.build();
        let w = Pumped::new(
            eagletree_workloads::SeqWriteGen::new(Region::whole(), ios),
            64,
            0xE16,
        )
        .named("seq-writer");
        let tid = os.add_thread(Box::new(w));
        let base = snapshot(&os);
        os.run();
        let m = measure_since(&os, &[tid], &base);
        t.rows.push(
            Row::new(name.to_string())
                .push("iops", m.iops)
                .push("write_us", m.write_mean_us)
                .push("makespan_ms", m.makespan_s * 1000.0),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E17 — hybrid log-block budget sweep

/// How many log blocks does a hybrid FTL need? Random overwrites force
/// full merges whose cost shrinks as the log pool grows — the §2.2 mapping
/// axis measured at its extreme (merge storms vs RAM budget).
fn e17_log_budget(scale: Scale) -> Table {
    let mut t = Table::new(
        "E17",
        "Random overwrite under the hybrid FTL vs log-block budget",
        "log_blocks",
    );
    for b in scale.thin(&[2usize, 4, 8, 16, 32]) {
        let mut setup = Setup::small();
        setup.ctrl.mapping = MappingKind::Hybrid {
            log_blocks: b,
            merge: MergePolicy::Fifo,
        };
        setup.ctrl.wl.static_enabled = false;
        let logical = setup.logical_pages();
        let ios = scale.ios(logical);
        let (os, tids) = run_preconditioned(
            &setup,
            vec![Box::new(
                Pumped::new(RandWriteGen::new(Region::whole(), ios), 32, 0xE17)
                    .named("overwriter"),
            )],
        );
        let base = snapshot(&os);
        let mut os = os;
        os.run();
        let m = measure_since(&os, &tids, &base);
        t.rows.push(
            Row::new(format!("{b}"))
                .push("iops", m.iops)
                .push("write_us", m.write_mean_us)
                .push("write_p99_us", m.write_p99_us)
                .push("WA", m.write_amplification)
                .push("full_merges", m.merges.full_merges as f64)
                .push("switch_merges", m.merges.switch_merges as f64)
                .push("merge_moves", m.merges.moves as f64)
                .push("merge_erases", m.merges.erases as f64),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E18 — simulator throughput

/// How fast does the *simulator* run? Host wall-seconds and simulation
/// events per host second for a GC-heavy random overwrite, swept over
/// device geometry × OS queue depth. This is the meta-experiment behind
/// every other one: the design-space sweeps the paper calls for are
/// affordable exactly in proportion to these numbers.
/// Queue depth stresses the controller's dispatch path (pending-op
/// selection) and the overwrite phase stresses GC victim selection;
/// `queue_ops` counts the schedules + pops the event engine performed.
fn e18_sim_throughput(scale: Scale) -> Table {
    let mut t = Table::new(
        "E18",
        "Host events/sec for GC-heavy overwrite vs geometry × queue depth",
        "geometry/qd",
    );
    let geoms: Vec<(&str, Geometry)> = vec![
        (
            "2x2x64x32",
            Geometry {
                channels: 2,
                luns_per_channel: 2,
                planes_per_lun: 1,
                blocks_per_plane: 64,
                pages_per_block: 32,
                page_size: 4096,
            },
        ),
        (
            "4x4x128x64",
            Geometry {
                channels: 4,
                luns_per_channel: 4,
                planes_per_lun: 1,
                blocks_per_plane: 128,
                pages_per_block: 64,
                page_size: 4096,
            },
        ),
    ];
    let qds: Vec<usize> = vec![1, 64, 512];
    for (gname, g) in scale.thin(&geoms) {
        for qd in scale.thin(&qds) {
            let mut setup = Setup::small();
            setup.geometry = g;
            setup.os.queue_depth = qd;
            setup.ctrl.wl.static_enabled = false;
            let logical = setup.logical_pages();
            // Enough overwrite to reach GC steady state even at smoke
            // scale (the fill leaves only the over-provisioning
            // headroom free).
            let ios = scale.ios(logical * 4);
            let mut os = setup.build();
            os.add_thread(sequential_fill(32));
            os.run();
            let tid = os.add_thread(Box::new(
                Pumped::new(RandWriteGen::new(Region::whole(), ios), qd.max(1) as u64, 0xE18)
                    .named("overwriter"),
            ));
            let base = snapshot(&os);
            let events_before = os.events_simulated();
            let queue_ops_before = os.queue_ops();
            #[allow(clippy::disallowed_methods)]
            // lint:allow(R2) E18 measures host events/sec — wall-clock throughput of the simulator itself is the experiment's result column, never simulation state
            let started = std::time::Instant::now();
            os.run();
            let wall_s = started.elapsed().as_secs_f64();
            let events = os.events_simulated() - events_before;
            let queue_ops = os.queue_ops() - queue_ops_before;
            let m = measure_since(&os, &[tid], &base);
            t.rows.push(
                Row::new(format!("{gname}/qd{qd}"))
                    .push("wall_ms", wall_s * 1000.0)
                    .push("events", events as f64)
                    .push(
                        "events_per_sec",
                        if wall_s > 0.0 { events as f64 / wall_s } else { 0.0 },
                    )
                    .push("queue_ops", queue_ops as f64)
                    .push("iops", m.iops)
                    .push("WA", m.write_amplification),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// E19 — noisy neighbor

/// The QoS policies E19/E20 sweep (every scale runs all of them — the
/// whole point is the cross-policy comparison).
fn qos_policies() -> Vec<(&'static str, QosPolicy)> {
    vec![
        ("none", QosPolicy::None),
        ("wfq", QosPolicy::Wfq),
        ("token_bucket", QosPolicy::TokenBucket),
        ("strict_tiers", QosPolicy::StrictTiers { starvation_us: 50_000 }),
    ]
}

/// "What does tenant A's p99 look like when tenant B misbehaves?" — a
/// latency-sensitive Zipf reader tenant shares the device with a
/// sequential-flood writer tenant. Swept over the tenant QoS policy: flat
/// dispatch (no isolation) vs WFQ vs token-bucket rate capping vs strict
/// tiers. The reader's tail percentiles are the paper-style y-axis.
fn e19_noisy_neighbor(scale: Scale) -> Table {
    let mut t = Table::new(
        "E19",
        "Reader-tenant tail latency under a flooding writer neighbor",
        "qos",
    );
    for (name, qos) in qos_policies() {
        let mut setup = Setup::small();
        setup.os.qos = qos;
        setup.os.queue_depth = 32;
        setup.ctrl.wl.static_enabled = false;
        let logical = setup.logical_pages();
        let mut os = setup.build();
        os.add_thread(sequential_fill(32));
        os.run();
        // Latency-sensitive tenant: skewed reads, small in-flight window,
        // high WFQ weight / top tier / no rate cap.
        let r_ios = scale.ios(logical / 2);
        let (reader, reader_tids) = TenantProfile::new("reader", 2048)
            .weight(8)
            .tier(0)
            .thread(
                Pumped::new(
                    ZipfGen::new(Region::whole(), r_ios, 0.99, ZipfKind::Reads),
                    4,
                    0xE19,
                )
                .named("zipf-reader"),
            )
            .install(&mut os);
        // Misbehaving neighbor: a sequential flood with a huge window,
        // low weight / lower tier / a 4k-IOPS cap under the token bucket.
        let w_ios = scale.ios(logical * 3);
        let (writer, writer_tids) = TenantProfile::new("flooder", 4096)
            .weight(1)
            .tier(1)
            .iops_limit(4_000.0)
            .burst(4.0)
            .thread(
                Pumped::new(SeqWriteGen::new(Region::whole(), w_ios), 256, 0x91E)
                    .named("seq-flooder"),
            )
            .install(&mut os);
        let base = snapshot(&os);
        os.run();
        let rm = measure_since(&os, &reader_tids, &base);
        let wm = measure_since(&os, &writer_tids, &base);
        let tail = os
            .tenant_stats(reader)
            .tail(eagletree_controller::OpClass::AppRead);
        t.rows.push(
            Row::new(name.to_string())
                .push("reader_p50_us", tail.p50.as_micros_f64())
                .push("reader_p95_us", tail.p95.as_micros_f64())
                .push("reader_p99_us", tail.p99.as_micros_f64())
                .push("reader_p999_us", tail.p999.as_micros_f64())
                .push("reader_iops", rm.iops)
                .push("flooder_iops", wm.iops)
                .push("internal_ops", wm.internal_ops as f64)
                .push("reader_util", os.namespace_utilization(reader))
                .push("flooder_util", os.namespace_utilization(writer)),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E20 — QoS design sweep

/// The serving-side design space: QoS policy × victim weight × tenant
/// count, with one flooding writer and `n-1` latency-sensitive readers.
/// Reports the worst reader p99, Jain fairness over per-tenant
/// throughput, and aggregate IOPS — the isolation-vs-utilization
/// trade-off grid.
fn e20_qos_sweep(scale: Scale) -> Table {
    let mut t = Table::new(
        "E20",
        "Worst reader p99 / fairness / aggregate IOPS over the QoS grid",
        "policy/weight/tenants",
    );
    let weights = scale.thin(&[1u32, 2, 4]);
    let counts = scale.thin(&[2usize, 3, 4]);
    for (pname, qos) in qos_policies() {
        for &w in &weights {
            for &n in &counts {
                let mut setup = Setup::small();
                setup.os.qos = qos.clone();
                setup.os.queue_depth = 32;
                setup.ctrl.wl.static_enabled = false;
                let logical = setup.logical_pages();
                let mut os = setup.build();
                os.add_thread(sequential_fill(32));
                os.run();
                let (_, writer_tids) = TenantProfile::new("flooder", 2048)
                    .weight(1)
                    .tier(1)
                    .iops_limit(4_000.0)
                    .burst(4.0)
                    .thread(
                        Pumped::new(
                            SeqWriteGen::new(Region::whole(), scale.ios(logical * 2)),
                            256,
                            0x20,
                        )
                        .named("seq-flooder"),
                    )
                    .install(&mut os);
                let readers: Vec<_> = (0..n - 1)
                    .map(|i| {
                        TenantProfile::new(format!("reader{i}"), 1024)
                            .weight(w)
                            .tier(0)
                            .thread(
                                Pumped::new(
                                    ZipfGen::new(
                                        Region::whole(),
                                        scale.ios(logical / 4),
                                        0.99,
                                        ZipfKind::Reads,
                                    ),
                                    4,
                                    0xE20 + i as u64,
                                )
                                .named("zipf-reader"),
                            )
                            .install(&mut os)
                    })
                    .collect();
                let base = snapshot(&os);
                os.run();
                let worst_p99 = readers
                    .iter()
                    .map(|(tid, _)| {
                        os.tenant_stats(*tid)
                            .tail(eagletree_controller::OpClass::AppRead)
                            .p99
                            .as_micros_f64()
                    })
                    .fold(0.0f64, f64::max);
                // Jain fairness over per-tenant throughput.
                let th: Vec<f64> = std::iter::once(&writer_tids)
                    .chain(readers.iter().map(|(_, tids)| tids))
                    .map(|tids| measure(&os, tids).iops)
                    .collect();
                let sum: f64 = th.iter().sum();
                let sumsq: f64 = th.iter().map(|x| x * x).sum();
                let jain = if sumsq == 0.0 {
                    0.0
                } else {
                    sum * sum / (th.len() as f64 * sumsq)
                };
                let all_tids: Vec<usize> = writer_tids
                    .iter()
                    .chain(readers.iter().flat_map(|(_, tids)| tids))
                    .copied()
                    .collect();
                let all = measure_since(&os, &all_tids, &base);
                t.rows.push(
                    Row::new(format!("{pname}/w{w}/n{n}"))
                        .push("worst_reader_p99_us", worst_p99)
                        .push("jain", jain)
                        .push("total_iops", all.iops)
                        .push("WA", all.write_amplification),
                );
            }
        }
    }
    t
}

// ---------------------------------------------------------------------
// E21 — crash recovery: mount time vs checkpoint interval × fill

/// The durability-vs-mount-time trade-off: fill a device to varying
/// levels (with overwrite churn on top), pull the plug through the OS
/// layer, and remount the captured medium under both recovery modes. A
/// full OOB scan reads every written page's spare area, so mount time
/// grows with fill; checkpointed recovery replays the last committed
/// snapshot and re-scans only blocks holding post-watermark entries, at
/// the cost of periodic checkpoint writes during normal operation.
fn e21_mount_time(scale: Scale) -> Table {
    let mut t = Table::new(
        "E21",
        "Mount time and OOB reads: full scan vs checkpoint replay, per fill × interval",
        "fill/interval",
    );
    let fills: Vec<f64> = vec![0.25, 0.5, 1.0];
    let intervals: Vec<u64> = vec![256, 512, 1024];
    for &fill in &scale.thin(&fills) {
        for &interval in &scale.thin(&intervals) {
            let mut setup = Setup::small();
            setup.ctrl.checkpoint_interval_programs = interval;
            setup.ctrl.wl.static_enabled = false;
            let logical = setup.logical_pages();
            let pages = ((logical as f64) * fill) as u64;
            let region = Region::new(0, pages);
            let mut os = setup.build();
            os.add_thread(Box::new(
                Pumped::new(SeqWriteGen::new(region, pages), 32, 0xE21).named("filler"),
            ));
            os.run();
            // Overwrite churn: garbage + post-checkpoint entries to replay.
            os.add_thread(Box::new(
                Pumped::new(RandWriteGen::new(region, pages / 2), 32, 0x21E)
                    .named("churner"),
            ));
            os.run();
            let ckpt_writes = os.controller().stats().checkpoint_pages;
            let image = os.power_cut();
            let (_, full) = Controller::remount(
                image.clone(),
                setup.ctrl.clone(),
                RecoveryMode::FullScan,
            )
            .expect("full-scan remount");
            let (c2, ck) =
                Controller::remount(image, setup.ctrl.clone(), RecoveryMode::Checkpoint)
                    .expect("checkpoint remount");
            c2.check_invariants();
            t.rows.push(
                Row::new(format!("f{}/i{interval}", (fill * 100.0) as u32))
                    .push("entries", full.data_entries as f64)
                    .push("full_oob", full.oob_scanned as f64)
                    .push("full_mount_us", full.mount_time.as_micros_f64())
                    .push("ckpt_oob", ck.oob_scanned as f64)
                    .push("ckpt_mount_us", ck.mount_time.as_micros_f64())
                    .push("ckpt_probes", ck.blocks_probed as f64)
                    .push("used_ckpt", if ck.used_checkpoint { 1.0 } else { 0.0 })
                    .push("ckpt_pages_written", ckpt_writes as f64),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// E22 — crash-point sweep during GC/merge

/// Controller-level crash driver: submits a scripted workload in windows
/// and advances one event boundary at a time, so a power cut can land at
/// any chosen point of the event stream — including mid-GC and mid-merge.
struct CrashDriver {
    c: Controller,
    now: SimTime,
    next_id: u64,
    writes: std::collections::BTreeMap<u64, u64>,
    /// Logical pages with at least one acknowledged write.
    acked: std::collections::BTreeSet<u64>,
}

impl CrashDriver {
    fn new(cfg: ControllerConfig) -> Self {
        CrashDriver {
            c: Controller::new(Geometry::tiny(), TimingSpec::slc(), cfg)
                .expect("E22 setup"),
            now: SimTime::ZERO,
            next_id: 0,
            writes: std::collections::BTreeMap::new(),
            acked: std::collections::BTreeSet::new(),
        }
    }

    fn write(&mut self, lpn: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.writes.insert(id, lpn);
        self.c.submit(
            SsdRequest {
                id,
                kind: RequestKind::Write,
                lpn,
                tags: IoTags::none(),
            },
            self.now,
        );
    }

    /// Advance up to `budget` event boundaries; returns the unused budget.
    fn step(&mut self, mut budget: u64) -> u64 {
        while budget > 0 {
            let Some(t) = self.c.next_event_time() else { break };
            budget -= 1;
            self.now = t;
            for comp in self.c.advance(t) {
                if let Some(&lpn) = self.writes.get(&comp.id) {
                    self.acked.insert(lpn);
                }
            }
        }
        budget
    }

    /// Sequentially fill the whole logical space (GC preconditioning).
    fn fill(&mut self) {
        let logical = self.c.logical_pages();
        for chunk_start in (0..logical).step_by(32) {
            for lpn in chunk_start..(chunk_start + 32).min(logical) {
                self.write(lpn);
            }
            self.step(u64::MAX);
        }
        self.acked.clear(); // measure only the churn phase
        self.writes.clear();
    }

    /// Run the churn workload, cutting after `crash_step` event
    /// boundaries (`u64::MAX` = run to quiescence). Returns remaining
    /// budget.
    fn churn(&mut self, ops: &[u64], qd: usize, crash_step: u64) -> u64 {
        let mut budget = crash_step;
        for chunk in ops.chunks(qd) {
            for &lpn in chunk {
                self.write(lpn);
            }
            budget = self.step(budget);
            if budget == 0 {
                return 0;
            }
        }
        budget
    }
}

/// The churn script: clustered overwrites on a full device — every write
/// forces reclamation (generic GC or log-block merges), so crash points
/// land inside GC reads/writes/erases and merge folds.
fn e22_ops(scale: Scale) -> Vec<u64> {
    let mut rng = SimRng::new(0xE22);
    (0..scale.ios(2048))
        .map(|_| rng.gen_range(96))
        .collect()
}

/// Pull the plug at evenly spaced points of a GC/merge-heavy event
/// stream, remount under both recovery modes, and verify that *every*
/// acknowledged write survives — the crash-atomicity proof for GC and
/// merge relocation (copies are sequence-stamped; victims are erased only
/// after all live copies landed). `lost` must be zero everywhere.
fn e22_crash_sweep(scale: Scale) -> Table {
    let mut t = Table::new(
        "E22",
        "Acknowledged writes surviving a power cut during GC/merge, per scheme × recovery mode",
        "scheme/mode",
    );
    let schemes: Vec<(&str, MappingKind)> = vec![
        ("page_map", MappingKind::PageMap),
        ("dftl", MappingKind::Dftl { cmt_entries: 24 }),
        (
            "hybrid",
            MappingKind::Hybrid {
                log_blocks: 3,
                merge: MergePolicy::Fifo,
            },
        ),
    ];
    let points = match scale {
        Scale::Smoke => 6u64,
        Scale::Demo => 12,
        Scale::Full => 24,
    };
    let ops = e22_ops(scale);
    let qd = 16;
    for (sname, mapping) in schemes {
        let cfg = ControllerConfig {
            mapping,
            checkpoint_interval_programs: 128,
            ..ControllerConfig::default()
        };
        // Rehearsal: total event boundaries of the churn phase.
        let mut d = CrashDriver::new(cfg.clone());
        d.fill();
        let left = d.churn(&ops, qd, u64::MAX);
        let total_steps = u64::MAX - left;
        let internal_erases =
            d.c.stats().gc_erases + d.c.stats().merge_erases + d.c.stats().wl_erases;
        for mode in [RecoveryMode::FullScan, RecoveryMode::Checkpoint] {
            let mut verified = 0u64;
            let mut lost = 0u64;
            let mut torn = 0u64;
            let mut interrupted = 0u64;
            let mut mount_us = 0.0f64;
            let mut oob = 0u64;
            for k in 1..=points {
                let crash_step = (k * total_steps / (points + 1)).max(1);
                let mut d = CrashDriver::new(cfg.clone());
                d.fill();
                d.churn(&ops, qd, crash_step);
                let acked = std::mem::take(&mut d.acked);
                let image = d.c.power_cut(d.now);
                let (c2, rep) = Controller::remount(image, cfg.clone(), mode)
                    .expect("E22 remount");
                let g = *c2.array().geometry();
                for &lpn in &acked {
                    let survives = c2.peek_mapping(lpn).is_some_and(|ppn| {
                        let addr = g.page_at(ppn);
                        c2.array().page_state(addr) == eagletree_flash::PageState::Valid
                            && !c2.array().is_torn(addr)
                    });
                    if survives {
                        verified += 1;
                    } else {
                        lost += 1;
                    }
                }
                c2.check_invariants();
                torn += rep.torn_pages;
                interrupted += rep.interrupted_erases;
                mount_us += rep.mount_time.as_micros_f64();
                oob += rep.oob_scanned;
            }
            t.rows.push(
                Row::new(format!("{sname}/{}", mode.name()))
                    .push("crash_points", points as f64)
                    .push("acked_verified", verified as f64)
                    .push("lost", lost as f64)
                    .push("torn_pages", torn as f64)
                    .push("interrupted_erases", interrupted as f64)
                    .push("mean_mount_us", mount_us / points as f64)
                    .push("mean_oob", oob as f64 / points as f64)
                    .push("pre_cut_internal_erases", internal_erases as f64),
            );
        }
    }
    t
}

// ---------------------------------------------------------------------
// E23 — trace replay vs characterizer-matched synthetic

/// Record counts for the replayed trace: the Full run streams a
/// million-IO trace end-to-end (the production-scale target), smoke keeps
/// CI in milliseconds.
fn e23_records(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 6_000,
        Scale::Demo => 120_000,
        Scale::Full => 1_100_000,
    }
}

/// The canonical E23 trace shape: a skewed, bursty, read-mostly mix over
/// a footprint comfortably inside the device's logical space.
fn e23_shape() -> SynthShape {
    SynthShape {
        footprint_pages: 3_000,
        read_fraction: 0.7,
        trim_fraction: 0.0,
        zipf_theta: 1.1,
        pages_per_record: 1,
        mean_interarrival: SimDuration::from_micros(20),
        interarrival_cv: 2.0,
    }
}

/// The full production ingestion chain for E23: a deterministic MSR-style
/// CSV byte stream, parsed back through [`MsrCsvSource`], folded into the
/// device's logical space, and prefetched in bounded chunks (peak
/// residency reported through `probe`).
fn e23_stream(
    records: u64,
    seed: u64,
    logical: u64,
    probe: Arc<AtomicUsize>,
) -> ChunkedSource<Remap<MsrCsvSource<std::io::BufReader<SynthCsv<SyntheticTrace>>>>> {
    let csv = SynthCsv::new(SyntheticTrace::new(e23_shape(), records, seed), 4096);
    let parsed = MsrCsvSource::new(std::io::BufReader::new(csv), 4096);
    ChunkedSource::new(Remap::new(parsed, logical), E23_CHUNK).with_probe(probe)
}

/// Records buffered per prefetch chunk — the bound the smoke test holds
/// peak residency to.
const E23_CHUNK: usize = 4096;

/// "Can a characterizer-matched synthetic stand in for the real trace?" —
/// replay a production-style CSV trace open-loop against all three
/// mapping schemes, then characterize the same byte stream and replay a
/// synthesized look-alike. The paper's methodology question: rows pair
/// `scheme/replay` with `scheme/synth` so throughput, tails and WA can be
/// compared side by side; the lead `trace/profile` row records what the
/// characterizer measured.
fn e23_trace_vs_synth(scale: Scale) -> Table {
    let mut t = Table::new(
        "E23",
        "Replayed CSV trace vs characterizer-matched synthetic, per mapping scheme",
        "scheme/source",
    );
    let records = e23_records(scale);
    let logical = Setup::small().logical_pages();
    // Characterize one identical byte stream (same seed ⇒ same records).
    let mut probe_src = e23_stream(records, 0xE23, logical, Arc::new(AtomicUsize::new(0)));
    let profile = characterize(&mut probe_src);
    t.rows.push(
        Row::new("trace/profile".to_string())
            .push("records", profile.records as f64)
            .push("footprint_pages", profile.footprint_pages as f64)
            .push("read_frac", profile.read_fraction)
            .push("zipf_theta", profile.zipf_theta)
            .push("mean_gap_us", profile.mean_interarrival.as_micros_f64())
            .push("gap_cv", profile.interarrival_cv),
    );
    let schemes: Vec<(&str, MappingKind)> = vec![
        ("page_map", MappingKind::PageMap),
        (
            "dftl",
            MappingKind::Dftl {
                cmt_entries: ((logical * 25) / 100).max(8) as usize,
            },
        ),
        (
            "hybrid",
            MappingKind::Hybrid {
                log_blocks: 16,
                merge: MergePolicy::Fifo,
            },
        ),
    ];
    for (sname, mapping) in schemes {
        // Both arms: same device, same preconditioning, open-loop pacing
        // with the same warp — only the record source differs.
        let mut run = |label: String, w: Box<dyn Workload>, probe: Option<Arc<AtomicUsize>>| {
            let mut setup = Setup::small();
            setup.ctrl.mapping = mapping;
            setup.ctrl.wl.static_enabled = false;
            setup.os.queue_depth = 64;
            let (os, tids) = run_preconditioned(&setup, vec![w]);
            let base = snapshot(&os);
            let mut os = os;
            os.run();
            let m = measure_since(&os, &tids, &base);
            let mut row = Row::new(label)
                .push("iops", m.iops)
                .push("read_p99_us", m.read_p99_us)
                .push("write_p99_us", m.write_p99_us)
                .push("WA", m.write_amplification)
                .push("gc_erases", m.gc_erases as f64);
            if let Some(p) = probe {
                row = row.push("peak_resident_recs", p.load(Ordering::Relaxed) as f64);
            }
            t.rows.push(row);
        };
        let probe = Arc::new(AtomicUsize::new(0));
        let replay = ReplayThread::open_loop(
            e23_stream(records, 0xE23, logical, Arc::clone(&probe)),
            50.0,
        )
        .named("trace-replay");
        run(format!("{sname}/replay"), Box::new(replay), Some(probe));
        let synth =
            ReplayThread::open_loop(profile.synthesize(records, 0x53E23), 50.0).named("synth");
        run(format!("{sname}/synth"), Box::new(synth), None);
    }
    t
}

// ---------------------------------------------------------------------
// E24 — QoS isolation under a replayed noisy neighbor

/// E19 re-run with production-style traffic: the flooding writer tenant
/// is replaced by an open-loop replay of a bursty write-heavy CSV trace
/// (ingested through the full parse chain), so the QoS policies face
/// recorded burst structure instead of a synthetic steady flood. Same
/// acceptance bar as E19: WFQ / token bucket must still cut the reader's
/// p99.
fn e24_replayed_noisy_neighbor(scale: Scale) -> Table {
    let mut t = Table::new(
        "E24",
        "Reader-tenant tails vs a replayed bursty trace neighbor, per QoS policy",
        "qos",
    );
    for (name, qos) in qos_policies() {
        let mut setup = Setup::small();
        setup.os.qos = qos;
        setup.os.queue_depth = 32;
        setup.ctrl.wl.static_enabled = false;
        let logical = setup.logical_pages();
        let mut os = setup.build();
        os.add_thread(sequential_fill(32));
        os.run();
        // Latency-sensitive tenant — identical to E19's reader.
        let r_ios = scale.ios(logical / 2);
        let (reader, reader_tids) = TenantProfile::new("reader", 2048)
            .weight(8)
            .tier(0)
            .thread(
                Pumped::new(
                    ZipfGen::new(Region::whole(), r_ios, 0.99, ZipfKind::Reads),
                    4,
                    0xE19,
                )
                .named("zipf-reader"),
            )
            .install(&mut os);
        // Misbehaving neighbor: an open-loop replay of a write-heavy
        // bursty trace, parsed from CSV; the replay thread folds trace
        // pages into the tenant's namespace.
        let shape = SynthShape {
            footprint_pages: 4_096,
            read_fraction: 0.05,
            trim_fraction: 0.0,
            zipf_theta: 0.4,
            pages_per_record: 1,
            mean_interarrival: SimDuration::from_micros(10),
            interarrival_cv: 2.5,
        };
        let w_ios = scale.ios(logical * 2);
        let csv = SynthCsv::new(SyntheticTrace::new(shape, w_ios, 0xE24), 4096);
        let parsed = MsrCsvSource::new(std::io::BufReader::new(csv), 4096);
        let flood = ReplayThread::open_loop(ChunkedSource::new(parsed, E23_CHUNK), 20.0)
            .named("trace-flooder");
        let (writer, writer_tids) = TenantProfile::new("flooder", 4096)
            .weight(1)
            .tier(1)
            .iops_limit(4_000.0)
            .burst(4.0)
            .thread(flood)
            .install(&mut os);
        let base = snapshot(&os);
        os.run();
        let rm = measure_since(&os, &reader_tids, &base);
        let wm = measure_since(&os, &writer_tids, &base);
        let tail = os
            .tenant_stats(reader)
            .tail(eagletree_controller::OpClass::AppRead);
        t.rows.push(
            Row::new(name.to_string())
                .push("reader_p50_us", tail.p50.as_micros_f64())
                .push("reader_p95_us", tail.p95.as_micros_f64())
                .push("reader_p99_us", tail.p99.as_micros_f64())
                .push("reader_p999_us", tail.p999.as_micros_f64())
                .push("reader_iops", rm.iops)
                .push("flooder_iops", wm.iops)
                .push("reader_util", os.namespace_utilization(reader))
                .push("flooder_util", os.namespace_utilization(writer)),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E25 — media reliability vs device age

/// The E25/E26 fault profile at `age` baseline P/E cycles: default
/// MLC-class failure curves, but disturb-sensitive cells so a short
/// virtual run accumulates enough raw errors for scrubbing to matter.
fn e25_fault(age: u32) -> FaultConfig {
    FaultConfig {
        raw_bits_per_disturb: 0.08,
        baseline_pe: age,
        ..FaultConfig::default()
    }
}

/// The E25/E26 scrub knob: disturb/retention thresholds low enough to
/// trip within a smoke-scale run, checked every `check_every_ops` ops.
fn e25_scrub(check_every_ops: u64) -> ScrubConfig {
    ScrubConfig {
        check_every_ops,
        read_disturb_threshold: 48,
        retention_threshold_s: 1.0,
        max_inflight: 1,
    }
}

/// Age the device (baseline P/E in the error curves) and read it hard:
/// raw bit errors grow with wear and read disturb, ECC retries charge
/// extra read time, and past the ECC's strength reads go uncorrectable.
/// Each scheme runs with and without background scrubbing — the scrubber
/// refreshes disturbed blocks before their errors outgrow the ECC, at
/// the cost of its own internal traffic.
fn e25_reliability_aging(scale: Scale) -> Table {
    let mut t = Table::new(
        "E25",
        "UBER / corrected bits / ECC retries / read tails vs device age, per scheme, ± scrubbing",
        "scheme/age/scrub",
    );
    let ages = scale.thin(&[0u32, 2_500, 5_000]);
    let schemes: Vec<(&str, MappingKind)> = vec![
        ("page_map", MappingKind::PageMap),
        ("dftl", MappingKind::Dftl { cmt_entries: 24 }),
        (
            "hybrid",
            MappingKind::Hybrid {
                log_blocks: 8,
                merge: MergePolicy::Fifo,
            },
        ),
    ];
    for (sname, mapping) in schemes {
        for &age in &ages {
            for scrub_on in [false, true] {
                let mut setup = Setup::small();
                setup.ctrl.mapping = mapping;
                setup.ctrl.wl.static_enabled = false;
                setup.ctrl.fault = Some(e25_fault(age));
                setup.ctrl.scrub = scrub_on.then(|| e25_scrub(64));
                let ios = scale.ios(setup.logical_pages() * 2);
                let (os, tids) = run_preconditioned(
                    &setup,
                    vec![Box::new(
                        Pumped::new(
                            ZipfGen::new(Region::whole(), ios, 0.99, ZipfKind::Reads),
                            32,
                            0xE25,
                        )
                        .named("zipf-reader"),
                    )],
                );
                let base = snapshot(&os);
                let mut os = os;
                os.run();
                let m = measure_since(&os, &tids, &base);
                let rel = m.reliability.expect("fault model installed");
                t.rows.push(
                    Row::new(format!(
                        "{sname}/pe{age}/{}",
                        if scrub_on { "scrub" } else { "noscrub" }
                    ))
                    .push("read_us", m.read_mean_us)
                    .push("read_p99_us", m.read_p99_us)
                    .push("uber", rel.uber)
                    .push("corrected_bits", rel.corrected_bits as f64)
                    .push("retries", rel.read_retries as f64)
                    .push("uncorrectable", rel.uncorrectable_reads as f64)
                    .push("grown_bad", rel.grown_bad_blocks as f64)
                    .push("remaps", rel.program_remaps as f64)
                    .push("scrub_refreshes", rel.scrub_refreshes as f64)
                    .push("lost_lpns", rel.lost_lpns as f64),
                );
            }
        }
    }
    t
}

// ---------------------------------------------------------------------
// E26 — scrub interference

/// What does reliability maintenance cost the foreground? One
/// latency-sensitive zipf reader (the E19 tenant-histogram machinery)
/// runs on an aged, disturb-sensitive device while the scrub cadence
/// sweeps from off to eager. Scrub refreshes ride the scheduler as
/// `ScrubRead`/`ScrubWrite`, so their interference lands in the reader's
/// tail percentiles; the reliability columns show what the interference
/// buys.
fn e26_scrub_interference(scale: Scale) -> Table {
    let mut t = Table::new(
        "E26",
        "Foreground reader tails and reliability vs scrub cadence (aged device)",
        "scrub_cadence",
    );
    let cadences: Vec<(&str, Option<u64>)> = vec![
        ("off", None),
        ("lazy", Some(1024)),
        ("steady", Some(256)),
        ("eager", Some(64)),
    ];
    for (name, every) in scale.thin(&cadences) {
        let mut setup = Setup::small();
        setup.os.queue_depth = 32;
        setup.ctrl.wl.static_enabled = false;
        setup.ctrl.fault = Some(e25_fault(2_500));
        setup.ctrl.scrub = every.map(e25_scrub);
        let logical = setup.logical_pages();
        let mut os = setup.build();
        os.add_thread(sequential_fill(32));
        os.run();
        let (reader, reader_tids) = TenantProfile::new("reader", 2048)
            .weight(8)
            .tier(0)
            .thread(
                Pumped::new(
                    ZipfGen::new(Region::whole(), scale.ios(logical), 0.99, ZipfKind::Reads),
                    8,
                    0xE26,
                )
                .named("zipf-reader"),
            )
            .install(&mut os);
        let base = snapshot(&os);
        os.run();
        let rm = measure_since(&os, &reader_tids, &base);
        let tail = os
            .tenant_stats(reader)
            .tail(eagletree_controller::OpClass::AppRead);
        let rel = rm.reliability.expect("fault model installed");
        t.rows.push(
            Row::new(name.to_string())
                .push("reader_p50_us", tail.p50.as_micros_f64())
                .push("reader_p95_us", tail.p95.as_micros_f64())
                .push("reader_p99_us", tail.p99.as_micros_f64())
                .push("reader_p999_us", tail.p999.as_micros_f64())
                .push("reader_iops", rm.iops)
                .push("scrub_refreshes", rel.scrub_refreshes as f64)
                .push("scrub_reads", rel.scrub_reads as f64)
                .push("scrub_writes", rel.scrub_writes as f64)
                .push("corrected_bits", rel.corrected_bits as f64)
                .push("retries", rel.read_retries as f64)
                .push("uncorrectable", rel.uncorrectable_reads as f64),
        );
    }
    t
}

// ---------------------------------------------------------------------
// E27 — tail forensics

/// *Where* does the tail come from? An E19/E26-style contention run — a
/// latency-sensitive Zipf reader against a flooding sequential writer on
/// an aged device — with the span collector enabled, per QoS arm. The
/// reader's stage-attributed breakdown must explain ≥95% of its measured
/// end-to-end latency at both p50 and p999 (the spans are exhaustive by
/// construction — any gap is a lost stage), and every read slower than
/// the p999 threshold is bucketed by its *dominant* stage, turning "the
/// tail got worse" into "the tail is scheduler-pending time behind GC".
fn e27_tail_forensics(scale: Scale) -> Table {
    let mut t = Table::new(
        "E27",
        "Reader tail explained per stage; p999 outliers bucketed by dominant stage",
        "qos",
    );
    for (name, qos) in [
        ("none", QosPolicy::None),
        ("token_bucket", QosPolicy::TokenBucket),
    ] {
        let mut setup = Setup::small();
        setup.os.qos = qos;
        setup.os.queue_depth = 32;
        setup.ctrl.wl.static_enabled = false;
        setup.ctrl.fault = Some(e25_fault(2_500));
        setup.ctrl.obs.span_capacity = 1 << 18;
        setup.ctrl.obs.timeline_interval_us = 500;
        let logical = setup.logical_pages();
        let mut os = setup.build();
        os.add_thread(sequential_fill(32));
        os.run();
        let (reader, _) = TenantProfile::new("reader", 2048)
            .weight(8)
            .tier(0)
            .thread(
                Pumped::new(
                    ZipfGen::new(Region::whole(), scale.ios(logical / 2), 0.99, ZipfKind::Reads),
                    4,
                    0xE27,
                )
                .named("zipf-reader"),
            )
            .install(&mut os);
        let (flooder, _) = TenantProfile::new("flooder", 4096)
            .weight(1)
            .tier(1)
            .iops_limit(4_000.0)
            .burst(4.0)
            .thread(
                Pumped::new(SeqWriteGen::new(Region::whole(), scale.ios(logical * 2)), 256, 0x72E)
                    .named("seq-flooder"),
            )
            .install(&mut os);
        os.run();
        let tail = os.tenant_stats(reader).tail(eagletree_controller::OpClass::AppRead);
        let bd = os
            .tenant_stats(reader)
            .stage_breakdown(RequestKind::Read)
            .expect("observability enabled")
            .clone();
        let fl_qos_us = os
            .tenant_stats(flooder)
            .stage_breakdown(RequestKind::Write)
            .map_or(0.0, |b| b.mean_us(eagletree_core::Stage::QosHold));
        // How much of the measured end-to-end tail the stage sums explain:
        // both sides come from the same log-bucketed histogram family, so
        // a lost stage shows up as a ratio well below 1.
        let span_tail = bd.total_tail();
        let explained = |span: SimDuration, measured: SimDuration| {
            if measured == SimDuration::ZERO {
                0.0
            } else {
                span.as_nanos() as f64 / measured.as_nanos() as f64
            }
        };
        // Bucket the p999 outliers by their dominant stage.
        let reader_tag = Some(reader as u32);
        let threshold = tail.p999.as_nanos();
        let mut outliers = [0u64; eagletree_core::Stage::COUNT];
        let obs = os.obs().expect("observability enabled");
        for s in obs.spans() {
            if s.kind == "AppRead" && s.tenant == reader_tag && s.stages.total() >= threshold {
                outliers[s.stages.dominant() as usize] += 1;
            }
        }
        let mut row = Row::new(name.to_string())
            .push("reader_p50_us", tail.p50.as_micros_f64())
            .push("reader_p99_us", tail.p99.as_micros_f64())
            .push("reader_p999_us", tail.p999.as_micros_f64())
            .push("explained_p50", explained(span_tail.p50, tail.p50))
            .push("explained_p999", explained(span_tail.p999, tail.p999));
        row = crate::metrics::push_stage_columns(row, &bd);
        row = row.push("fl_qos_us", fl_qos_us);
        row = row.push("p999_outliers", outliers.iter().sum::<u64>() as f64);
        for (i, stage) in eagletree_core::Stage::ALL.iter().enumerate() {
            row = row.push(
                match stage {
                    eagletree_core::Stage::QueueWait => "out_queue",
                    eagletree_core::Stage::QosHold => "out_qos",
                    eagletree_core::Stage::SchedPending => "out_pend",
                    eagletree_core::Stage::Media => "out_media",
                    eagletree_core::Stage::Retry => "out_retry",
                },
                outliers[i] as f64,
            );
        }
        row = row
            .push("spans", obs.closed_count() as f64)
            .push("spans_dropped", obs.dropped() as f64)
            .push("tl_rows", os.timeline().map_or(0, |tl| tl.len()) as f64);
        t.rows.push(row);
    }
    t
}

// ---------------------------------------------------------------------
// G1 — the game

/// The demo game: grid-search scheduling-related knobs and score each
/// combination by throughput balanced against latency imbalance and
/// variability between reads and writes (§3). Rows are sorted best-first.
fn g1_game(scale: Scale) -> Table {
    let mut t = Table::new(
        "G1",
        "Scheduling game: score = iops/1k − imbalance − variability",
        "combo",
    );
    let pols: Vec<(&str, SchedPolicy)> = vec![
        ("fifo", SchedPolicy::Fifo),
        ("reads_first", SchedPolicy::reads_first()),
        ("edf", SchedPolicy::edf_default()),
        ("fair", SchedPolicy::fair_equal()),
    ];
    let pols = scale.thin(&pols);
    let greeds = scale.thin(&[1u32, 4]);
    let qds = scale.thin(&[8usize, 32]);
    let mut rows = Vec::new();
    for (pname, pol) in &pols {
        for &g in &greeds {
            for &qd in &qds {
                let mut setup = Setup::small();
                setup.ctrl.sched = pol.clone();
                setup.ctrl.gc.greediness = g;
                setup.ctrl.wl.static_enabled = false;
                setup.os.queue_depth = qd;
                let ios = scale.ios(setup.logical_pages() * 2);
                let (os, tids) = run_preconditioned(
                    &setup,
                    vec![Box::new(
                        Pumped::new(MixedGen::new(Region::whole(), ios, 0.5), 64, 0x61)
                            .named("game"),
                    )],
                );
                let base = snapshot(&os);
                let mut os = os;
                os.run();
                let m = measure_since(&os, &tids, &base);
                let imbalance = (m.read_mean_us - m.write_mean_us).abs() / 100.0;
                let variability = (m.read_stddev_us + m.write_stddev_us) / 200.0;
                let score = m.iops / 1000.0 - imbalance - variability;
                rows.push(
                    Row::new(format!("{pname}/g{g}/qd{qd}"))
                        .push("score", score)
                        .push("iops", m.iops)
                        .push("read_us", m.read_mean_us)
                        .push("write_us", m.write_mean_us)
                        .push("read_sd_us", m.read_stddev_us)
                        .push("write_sd_us", m.write_stddev_us),
                );
            }
        }
    }
    rows.sort_by(|a, b| {
        b.get("score")
            .partial_cmp(&a.get("score"))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    t.rows = rows;
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_is_complete_and_indexed() {
        let s = all();
        assert_eq!(s.len(), 28);
        let ids: Vec<&str> = s.iter().map(|e| e.id).collect();
        assert_eq!(
            ids,
            vec![
                "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12",
                "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22", "E23",
                "E24", "E25", "E26", "E27", "G1"
            ]
        );
        assert!(by_id("e3").is_some());
        assert!(by_id("G1").is_some());
        assert!(by_id("E99").is_none());
    }

    #[test]
    fn smoke_e25_reliability_scales_with_age() {
        let t = e25_reliability_aging(Scale::Smoke);
        // 3 schemes x 2 ages (smoke keeps the sweep's ends) x ± scrub.
        assert_eq!(t.rows.len(), 12);
        let get = |label: String, col: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("missing row {label}"))
                .get(col)
                .unwrap()
        };
        for scheme in ["page_map", "dftl", "hybrid"] {
            // An aged device needs more ECC retries (and read-retry time)
            // than a fresh one — the aging curve actually bites.
            assert!(
                get(format!("{scheme}/pe5000/noscrub"), "retries")
                    > get(format!("{scheme}/pe0/noscrub"), "retries"),
                "retries must grow with device age: {}",
                t.render()
            );
            // The scrubber refreshed at-risk blocks when enabled and
            // never ran when disabled.
            assert_eq!(get(format!("{scheme}/pe5000/noscrub"), "scrub_refreshes"), 0.0);
            assert!(
                get(format!("{scheme}/pe5000/scrub"), "scrub_refreshes") > 0.0,
                "an aged disturb-heavy run must trigger scrubbing: {}",
                t.render()
            );
            // At these ECC settings nothing goes uncorrectable, so the
            // lost-data ledger stays empty.
            assert_eq!(get(format!("{scheme}/pe5000/scrub"), "lost_lpns"), 0.0);
        }
    }

    #[test]
    fn smoke_e26_scrub_cadence_trades_interference() {
        let t = e26_scrub_interference(Scale::Smoke);
        // Smoke thins the cadence sweep to off + eager.
        assert_eq!(t.rows.len(), 2);
        let off = &t.rows[0];
        let eager = &t.rows[1];
        assert_eq!(off.label, "off");
        assert_eq!(off.get("scrub_refreshes").unwrap(), 0.0);
        assert_eq!(off.get("scrub_reads").unwrap(), 0.0);
        assert!(
            eager.get("scrub_refreshes").unwrap() > 0.0,
            "eager cadence must scrub: {}",
            t.render()
        );
        assert!(eager.get("scrub_reads").unwrap() > 0.0);
        // Both arms measured a live foreground.
        assert!(off.get("reader_p99_us").unwrap() > 0.0);
        assert!(eager.get("reader_p99_us").unwrap() > 0.0);
    }

    #[test]
    fn smoke_e21_checkpoint_cuts_mount_scan() {
        let t = e21_mount_time(Scale::Smoke);
        assert!(!t.rows.is_empty());
        for r in &t.rows {
            assert_eq!(
                r.get("used_ckpt").unwrap(),
                1.0,
                "a checkpoint must commit before the cut: {}",
                t.render()
            );
            // The acceptance bar: checkpointed recovery scans strictly
            // fewer OOB entries than the full scan, and mounts no slower.
            assert!(
                r.get("ckpt_oob").unwrap() < r.get("full_oob").unwrap(),
                "checkpoint replay must scan less than a full scan: {}",
                t.render()
            );
            assert!(
                r.get("ckpt_mount_us").unwrap() <= r.get("full_mount_us").unwrap(),
                "checkpoint replay must not mount slower: {}",
                t.render()
            );
            assert!(r.get("ckpt_pages_written").unwrap() > 0.0);
        }
        // Fuller devices pay more for the full scan.
        let first = t.rows.first().unwrap().get("full_oob").unwrap();
        let last = t.rows.last().unwrap().get("full_oob").unwrap();
        assert!(last > first, "full-scan cost should grow with fill");
    }

    #[test]
    fn smoke_e22_no_acknowledged_write_lost() {
        let t = e22_crash_sweep(Scale::Smoke);
        assert_eq!(t.rows.len(), 6, "3 schemes x 2 recovery modes");
        let mut torn_total = 0.0;
        for r in &t.rows {
            assert_eq!(
                r.get("lost").unwrap(),
                0.0,
                "acknowledged writes lost across a power cut: {}",
                t.render()
            );
            assert!(r.get("acked_verified").unwrap() > 0.0);
            assert!(
                r.get("pre_cut_internal_erases").unwrap() > 0.0,
                "the sweep must actually crash into GC/merge activity"
            );
            torn_total += r.get("torn_pages").unwrap();
        }
        assert!(
            torn_total > 0.0,
            "some crash point should land mid-program: {}",
            t.render()
        );
    }

    #[test]
    fn smoke_e19_qos_isolates_the_reader_tenant() {
        let t = e19_noisy_neighbor(Scale::Smoke);
        let p99 = |label: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap()
                .get("reader_p99_us")
                .unwrap()
        };
        let (none, wfq, tb) = (p99("none"), p99("wfq"), p99("token_bucket"));
        // The acceptance bar: WFQ or the token bucket must cut the
        // reader's p99 under a flooding neighbor at least 2x.
        assert!(
            none >= 2.0 * wfq.min(tb),
            "no >=2x isolation win: none={none:.0}us wfq={wfq:.0}us tb={tb:.0}us\n{}",
            t.render()
        );
        // Namespace accounting: the flooder writes, the reader does not.
        let row = t.rows.iter().find(|r| r.label == "none").unwrap();
        assert!(row.get("flooder_util").unwrap() > 0.0);
        assert_eq!(row.get("reader_util").unwrap(), 0.0);
    }

    #[test]
    fn smoke_e23_replays_and_matches_the_trace() {
        let t = e23_trace_vs_synth(Scale::Smoke);
        // 1 profile row + 3 schemes × {replay, synth}.
        assert_eq!(t.rows.len(), 7, "{}", t.render());
        let profile = t.rows.first().unwrap();
        assert_eq!(profile.get("records").unwrap(), e23_records(Scale::Smoke) as f64);
        // The characterizer should land near the generating shape.
        assert!((profile.get("read_frac").unwrap() - 0.7).abs() < 0.05, "{}", t.render());
        assert!((profile.get("zipf_theta").unwrap() - 1.1).abs() < 0.4, "{}", t.render());
        for r in t.rows.iter().skip(1) {
            assert!(r.get("iops").unwrap() > 0.0, "{}", t.render());
            // The streaming chain must never buffer more than one chunk.
            if let Some(peak) = r.get("peak_resident_recs") {
                assert!(
                    peak <= E23_CHUNK as f64,
                    "trace residency exceeded the chunk bound: {}",
                    t.render()
                );
                assert!(peak > 0.0);
            }
        }
        // Every scheme ran both arms.
        for s in ["page_map", "dftl", "hybrid"] {
            assert!(t.rows.iter().any(|r| r.label == format!("{s}/replay")));
            assert!(t.rows.iter().any(|r| r.label == format!("{s}/synth")));
        }
    }

    #[test]
    fn smoke_e24_qos_still_isolates_under_replayed_traffic() {
        let t = e24_replayed_noisy_neighbor(Scale::Smoke);
        let p99 = |label: &str| {
            t.rows
                .iter()
                .find(|r| r.label == label)
                .unwrap()
                .get("reader_p99_us")
                .unwrap()
        };
        let (none, wfq, tb) = (p99("none"), p99("wfq"), p99("token_bucket"));
        // E19's acceptance bar holds under recorded burst structure too.
        assert!(
            none >= 2.0 * wfq.min(tb),
            "no >=2x isolation win under replay: none={none:.0}us wfq={wfq:.0}us tb={tb:.0}us\n{}",
            t.render()
        );
        let row = t.rows.iter().find(|r| r.label == "none").unwrap();
        assert!(row.get("flooder_iops").unwrap() > 0.0, "{}", t.render());
        assert!(row.get("flooder_util").unwrap() > 0.0);
    }

    #[test]
    fn smoke_e20_covers_the_policy_grid() {
        let t = e20_qos_sweep(Scale::Smoke);
        // 4 policies × thinned weights {1,4} × thinned counts {2,4}.
        assert_eq!(t.rows.len(), 16);
        for r in &t.rows {
            assert!(r.get("worst_reader_p99_us").unwrap() > 0.0, "{}", t.render());
            let jain = r.get("jain").unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&jain));
        }
        // Isolation must show up in the grid too: some QoS row beats the
        // flat dispatcher on the worst reader p99.
        let flat = t.rows.iter().find(|r| r.label.starts_with("none/")).unwrap();
        let best_qos = t
            .rows
            .iter()
            .filter(|r| !r.label.starts_with("none/"))
            .map(|r| r.get("worst_reader_p99_us").unwrap())
            .fold(f64::INFINITY, f64::min);
        assert!(best_qos < flat.get("worst_reader_p99_us").unwrap());
    }

    #[test]
    fn smoke_e6_covers_all_three_mapping_families() {
        let t = e6_mapping(Scale::Smoke);
        let labels: Vec<&str> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"page_map"));
        assert!(labels.iter().any(|l| l.starts_with("dftl_")));
        assert!(labels.iter().any(|l| l.starts_with("hybrid_")));
        // The hybrid's selling point: far less mapping RAM than page map.
        let pm = t.rows.iter().find(|r| r.label == "page_map").unwrap();
        let hy = t.rows.iter().find(|r| r.label.starts_with("hybrid_")).unwrap();
        assert!(
            hy.get("map_ram_kb").unwrap() * 4.0 < pm.get("map_ram_kb").unwrap(),
            "hybrid mapping RAM should be far below the page map's"
        );
        assert!(hy.get("merges").unwrap() > 0.0, "hybrid rows must merge");
    }

    #[test]
    fn smoke_e17_bigger_log_pool_cuts_wa() {
        let t = e17_log_budget(Scale::Smoke);
        let small = t.rows.first().unwrap();
        let big = t.rows.last().unwrap();
        assert!(
            big.get("WA").unwrap() < small.get("WA").unwrap(),
            "more log blocks must reduce merge write amplification: {}",
            t.render()
        );
        assert!(small.get("full_merges").unwrap() > 0.0);
    }

    #[test]
    fn smoke_e16_pipelining_speeds_sequential_writes() {
        let t = e16_pipelining(Scale::Smoke);
        let off = t.rows[0].get("iops").unwrap();
        let on = t.rows[1].get("iops").unwrap();
        assert!(
            on > off * 1.1,
            "cached programming should lift sequential writes: on={on:.0} off={off:.0}"
        );
    }

    #[test]
    fn smoke_e13_buffer_absorbs_writes() {
        let t = e13_write_buffer(Scale::Smoke);
        let none = t.rows.first().unwrap().get("WA").unwrap();
        let big = t.rows.last().unwrap().get("WA").unwrap();
        assert!(
            big < none,
            "a 256-page buffer must cut WA under zipf: {big} !< {none}"
        );
    }

    #[test]
    fn smoke_e1_scales_with_parallelism() {
        let t = e1_parallelism(Scale::Smoke);
        assert!(t.rows.len() >= 2);
        let first = t.rows.first().unwrap();
        let last = t.rows.last().unwrap();
        assert!(
            last.get("iops").unwrap() > first.get("iops").unwrap() * 2.0,
            "64 LUNs should far outrun 1 LUN: {t:?}",
            t = t.render()
        );
    }

    #[test]
    fn smoke_e2_throughput_rises_with_qd() {
        let t = e2_queue_depth(Scale::Smoke);
        let qd1 = t.rows.first().unwrap().get("iops").unwrap();
        let qd64 = t.rows.last().unwrap().get("iops").unwrap();
        assert!(qd64 > qd1 * 2.0, "qd=64 ({qd64}) !> 2×qd=1 ({qd1})");
    }

    #[test]
    fn smoke_e12_slc_beats_mlc() {
        let t = e12_chip_type(Scale::Smoke);
        let slc = t.rows[0].get("iops").unwrap();
        let mlc = t.rows[1].get("iops").unwrap();
        assert!(slc > mlc, "SLC {slc} should beat MLC {mlc}");
    }

    #[test]
    fn smoke_e18_reports_simulator_throughput() {
        let t = e18_sim_throughput(Scale::Smoke);
        // Smoke thins to first/last of each axis: 2 geometries × 2 qds.
        let labels: Vec<&str> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(
            labels,
            ["2x2x64x32/qd1", "2x2x64x32/qd512", "4x4x128x64/qd1", "4x4x128x64/qd512"]
        );
        for r in &t.rows {
            assert!(r.get("events").unwrap() > 0.0, "no events simulated: {t}", t = t.render());
            assert!(r.get("events_per_sec").unwrap() > 0.0);
            assert!(r.get("queue_ops").unwrap() > 0.0);
            assert!(r.get("WA").unwrap() >= 1.0, "overwrite phase must hit flash");
        }
        // The GC-heavy phase must actually trigger GC at the small geometry.
        assert!(
            t.rows[0].get("WA").unwrap() > 1.0,
            "steady-state overwrite should amplify writes: {t}",
            t = t.render()
        );
    }

    #[test]
    fn smoke_e27_stage_breakdown_explains_the_tail() {
        let t = e27_tail_forensics(Scale::Smoke);
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            // The acceptance bar: the stage sums must explain ≥95% of the
            // measured end-to-end latency at the median and deep tail.
            for col in ["explained_p50", "explained_p999"] {
                let e = r.get(col).unwrap();
                assert!(
                    (0.95..=1.05).contains(&e),
                    "{col}={e:.3} for {}: breakdown lost a stage\n{}",
                    r.label,
                    t.render()
                );
            }
            // Every p999 outlier got a dominant-stage bucket, and the
            // buckets sum to the outlier count.
            let n = r.get("p999_outliers").unwrap();
            assert!(n > 0.0, "no p999 outliers found: {}", t.render());
            let sum: f64 = ["out_queue", "out_qos", "out_pend", "out_media", "out_retry"]
                .iter()
                .map(|c| r.get(c).unwrap())
                .sum();
            assert_eq!(sum, n);
            assert!(r.get("spans").unwrap() > 0.0);
            assert!(r.get("tl_rows").unwrap() > 0.0, "timeline sampled no intervals");
            // Media time is charged on every read that touched flash.
            assert!(r.get("st_media_us").unwrap() > 0.0);
        }
        // The QosHold stage only exists under the token bucket: the
        // rate-capped flooder accrues hold time, the flat dispatcher none.
        let none = t.rows.iter().find(|r| r.label == "none").unwrap();
        let tb = t.rows.iter().find(|r| r.label == "token_bucket").unwrap();
        assert_eq!(none.get("fl_qos_us").unwrap(), 0.0);
        assert!(
            tb.get("fl_qos_us").unwrap() > 0.0,
            "token bucket must charge the flooder hold time: {}",
            t.render()
        );
    }

    #[test]
    fn smoke_g1_produces_sorted_leaderboard() {
        let t = g1_game(Scale::Smoke);
        assert!(t.rows.len() >= 4);
        let scores: Vec<f64> = t.rows.iter().map(|r| r.get("score").unwrap()).collect();
        let mut sorted = scores.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
        assert_eq!(scores, sorted, "leaderboard must be best-first");
    }
}
