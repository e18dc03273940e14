//! The SSD controller: orchestration of mapping, GC, wear leveling and
//! scheduling over the flash array.
//!
//! The controller owns an internal event agenda (flash completions and
//! scheduler wake-ups) and exposes a pull interface to the OS layer:
//! [`Controller::submit`] accepts requests, [`Controller::next_event_time`]
//! reports when something internal happens next, and
//! [`Controller::advance`] processes the agenda up to a virtual instant and
//! returns request completions. All policy — *which* pending flash
//! operation issues next and *where* unbound writes land — is delegated to
//! the configured [`crate::sched::SchedPolicy`] and write allocator — precisely
//! the design space the paper exposes.
//!
//! ## Flash-op lifecycle
//!
//! A flash op waits in the pending set as a `PendKind` until the scheduler
//! issues it, then sits on the agenda as a `DoneWhat` until it completes.
//! Each job has one path through that lifecycle, whichever module (host
//! IO, GC, wear leveling, scrub, DFTL, hybrid merges, checkpoints) owns
//! the op:
//!
//! * **One read hand-off.** Every array read completes as `ReadArray`,
//!   which enqueues the register transfer with an `AfterXfer`: where the
//!   data goes next. The transfer inherits the read's class and tag,
//!   except a translation writeback's, which bills to `MappingWrite`.
//! * **One erase op.** `PendKind::Erase` carries an `EraseOwner`: a
//!   reclaim job, a merge, or the checkpoint. Issue, lane and the
//!   transient-failure retry are shared. The completion frees (or masks)
//!   the block, then advances the owner; reclaim and merge erases drive
//!   the static wear-leveling trigger.
//! * **One remap on program failure.** `remap_failed_program` drops the
//!   burned page, retires its block (a hybrid log append releases its
//!   slot instead) and re-enqueues the op to land elsewhere. Merge-fold
//!   and checkpoint programs have fixed destinations and absorb failures.
//! * Relocation traffic bills its op classes through one `IoSource` map
//!   (`relocation_classes`), and wear-leveling and scrub refreshes start
//!   through one `start_refresh` under every scheme.

use std::collections::{BTreeMap, BTreeSet};

use eagletree_core::{
    Cause, EventQueue, Obs, ObsConfig, OnlineStats, SimDuration, SimRng, SimTime, NO_SPAN,
};
use eagletree_flash::{
    BlockAddr, FaultEvent, FlashArray, FlashCommand, Geometry, MemoryKind, MemoryManager,
    OobEntry, OobTag, PageState, PhysicalAddr, TimingSpec,
};

use crate::alloc::{Allocator, Stream};
use crate::buffer::WriteBuffer;
use crate::config::{ControllerConfig, MappingKind, TemperatureMode};
use crate::ftl::{
    Dftl, Ftl, FtlKind, Hybrid, HybridEvent, HybridPlace, HybridStats, MapLookup, PageMap,
    TranslationWriteback,
};
use crate::gc::{pick_victim, FoldPlan, FoldState, MergeJob, ReclaimJob};
use crate::pend::{LaneKey, PendingSet, QueueKey, NO_SLOT};
use crate::recovery::{self, CheckpointRecord, CrashImage, RecoveryMode, RecoveryReport};
use crate::sched::{class_index, class_table, ClassTable};
use crate::scrub::pick_scrub_victim;
use crate::temperature::MultiBloomDetector;
use crate::types::{
    Completion, IoSource, Lpn, OpClass, Ppn, RequestId, RequestKind, SsdRequest, Temperature,
};
use crate::wear::pick_wl_victim;

/// Sort key the scheduler sees per issuable op: class, open-interface
/// priority tag, enqueue time, arrival sequence.
type SchedKey = (OpClass, Option<u8>, SimTime, u64);

/// Per-scheduling-round memo of write-issuability results, keyed by the
/// op-independent `(bound LUN, stream)` pair: every unbound write of one
/// stream shares one probe per round instead of re-scanning all LUNs.
type WriteMemo = Vec<((Option<u32>, Stream), bool)>;

/// Lane-key tag of a resource lane (GC moves and erases, keyed by their
/// linear LUN). Write-lane keys stay below it: their `(LUN, stream)`
/// encoding uses bits 0..63 only.
const RESOURCE_LANE: u64 = 1 << 63;

/// Pending-set depth up to which debug builds check every dispatch round
/// against the full-scan oracle (see `Controller::first_issuable`).
#[cfg(debug_assertions)]
const ORACLE_DEPTH: u64 = 64;

/// Host-side work of the controller's dispatch loop: scheduling rounds
/// and the issuability probes they make. Deterministic, but it measures
/// the simulator rather than the simulated device, so it stays out of
/// [`CtrlStats`] and every fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchProbes {
    /// Scheduling rounds (`run_sched` calls).
    pub rounds: u64,
    /// Issuability probes of ops on an order-scan queue.
    pub scan: u64,
    /// Issuability probes of lane heads.
    pub lane: u64,
}

impl DispatchProbes {
    /// All issuability probes.
    pub fn total(&self) -> u64 {
        self.scan + self.lane
    }
}

/// What a physical page holds (the controller's reverse map).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageContent {
    /// Application data for this logical page.
    Data(Lpn),
    /// A DFTL translation page.
    Translation(u64),
    /// A page of a mapping checkpoint in one of the reserved slots.
    Checkpoint(u8),
}

/// Completion-event payloads: what finished and what to do next.
#[derive(Debug, Clone, Copy)]
enum DoneWhat {
    /// A page landed in its LUN register; `class` and `tag` are the read
    /// op's, which the transfer out inherits (but see `handle_done`).
    ReadArray { addr: PhysicalAddr, class: OpClass, tag: Option<u8>, then: AfterXfer },
    /// A register transfer finished: hand the data on.
    Transferred(AfterXfer),
    AppWriteDone { id: RequestId, lpn: Lpn, ppn: Ppn },
    /// A GC/WL/scrub migration (program or copy-back) landed at `new`.
    GcWriteDone { job: usize, from_ppn: Ppn, content: PageContent, new: PhysicalAddr },
    WbWrite { wb: usize, new: PhysicalAddr },
    FlushDone { lpn: Lpn, version: u64, ppn: Ppn },
    MergeProgDone { mj: usize, from: Option<Ppn>, dest: Ppn },
    EraseDone { block: BlockAddr, owner: EraseOwner },
    CkptWriteDone,
}

/// Where read data goes once its transfer leaves the LUN register.
#[derive(Debug, Clone, Copy)]
enum AfterXfer {
    /// Completes an application read.
    App { id: RequestId },
    /// Feeds the program of reclaim job `job`'s move of `from_ppn`.
    Gc { job: usize, from_ppn: Ppn },
    /// Installs a fetched translation page.
    MapFetch { tvpn: u64 },
    /// Feeds a translation writeback's program.
    Wb { wb: usize },
    /// Feeds merge job `mj`'s fold program of `from_ppn`.
    Merge { mj: usize, from_ppn: Ppn },
}

/// Whose block an erase reclaims: what its completion advances.
#[derive(Debug, Clone, Copy)]
enum EraseOwner {
    /// The victim of a GC / WL / scrub reclaim job.
    Reclaim { job: usize },
    /// A block a merge of `source` retired. `job`: set for the victim log
    /// block whose erase completes that merge job.
    Merge { source: IoSource, job: Option<usize> },
    /// A reserved block whose checkpoint a newer commit retired.
    Checkpoint,
}

enum CtrlEvent {
    Wake,
    Done(DoneWhat),
}

/// Payload of an unbound write op.
#[derive(Debug, Clone, Copy)]
enum WriteWhat {
    App { id: RequestId, lpn: Lpn },
    Gc { job: usize, from_ppn: Ppn, content: PageContent },
    Translation { wb: usize },
    /// Background flush of a buffered write.
    Flush { lpn: Lpn, version: u64 },
}

/// Payload of a hybrid-FTL log append (placement resolved at issue time
/// by the log-block discipline, not the free write allocator).
#[derive(Debug, Clone, Copy)]
enum HybridWhat {
    App { id: RequestId, lpn: Lpn },
    Flush { lpn: Lpn, version: u64 },
}

impl HybridWhat {
    fn lpn(self) -> Lpn {
        match self {
            HybridWhat::App { lpn, .. } | HybridWhat::Flush { lpn, .. } => lpn,
        }
    }
}

/// A pending flash operation awaiting scheduling.
#[derive(Debug, Clone, Copy)]
enum PendKind {
    /// Transfer previously read data out of a LUN register.
    Transfer { addr: PhysicalAddr, then: AfterXfer },
    /// Erase a block; its owner decides what the completion advances.
    Erase { block: BlockAddr, owner: EraseOwner },
    /// Application read; physical target resolved at issue time.
    AppRead { id: RequestId, lpn: Lpn },
    /// DFTL translation-page fetch; location resolved at issue time.
    MapFetchRead { tvpn: u64 },
    /// Read-merge source of a translation writeback.
    WbRead { wb: usize },
    /// Program with destination chosen at issue time.
    Write { lun: Option<u32>, stream: Stream, what: WriteWhat },
    /// GC page migration (copy-back or read+program, decided at issue).
    GcMove { job: usize, from: PhysicalAddr },
    /// Hybrid-FTL write: appends to the scheme's current log block.
    HybridWrite { what: HybridWhat },
    /// Read of the current merge-fold offset's live copy (source resolved
    /// at issue; a trimmed page reroutes to a filler program).
    MergeRead { mj: usize },
    /// Program of the current merge-fold offset into the destination
    /// block. `from` is the copied source (`None`: filler keeping the
    /// destination's NAND program order over an unmapped hole).
    MergeProgram { mj: usize, from: Option<Ppn> },
    /// Program of the in-flight checkpoint's next snapshot page into its
    /// reserved slot (destination derived from the checkpoint job).
    CkptWrite,
}

#[derive(Debug, Clone, Copy)]
struct PendingOp {
    seq: u64,
    class: OpClass,
    tag: Option<u8>,
    enqueued_at: SimTime,
    kind: PendKind,
    /// Lifecycle span this op belongs to ([`NO_SPAN`] with obs off).
    span: u64,
}

/// Issue-time observability context, handed from [`Controller::issue`] to
/// `issue_cmd` through a field so the ~18 `issue_cmd` call sites stay
/// untouched: the span of the op being issued, whether it is bound to a
/// host request (vs. an internal op), and when it entered the pending set.
#[derive(Debug, Clone, Copy)]
struct ObsCur {
    span: u64,
    host: bool,
    enqueued_at: SimTime,
}

impl Default for ObsCur {
    fn default() -> Self {
        ObsCur {
            span: NO_SPAN,
            host: false,
            enqueued_at: SimTime::ZERO,
        }
    }
}

struct AppIo {
    req: SsdRequest,
    pinned: bool,
}

/// Something parked on a translation-page fetch.
#[derive(Debug, Clone, Copy)]
enum Waiter {
    Request(RequestId),
    Flush { lpn: Lpn, version: u64 },
}

struct FetchJob {
    waiting: Vec<Waiter>,
}

struct WbJob {
    tvpn: u64,
    old_ppn: Option<Ppn>,
}

/// Runtime state of the periodic mapping checkpoint
/// (`ControllerConfig::checkpoint_interval_programs > 0`).
///
/// Two reserved block groups double-buffer the snapshot: the next
/// checkpoint programs into `slots[next_slot]` page by page through the
/// scheduler, commits when its last program lands, and only then retires
/// (erases) the previous committed slot — so at every instant, either the
/// old or the new checkpoint is whole on flash.
struct CkptState {
    /// Program stamps between checkpoints.
    interval: u64,
    /// Pages one snapshot serializes to.
    pages_per_snapshot: u32,
    /// Reserved blocks per slot (never in the allocator's free pool).
    slots: [Vec<BlockAddr>; 2],
    /// Slot the next checkpoint writes into.
    next_slot: usize,
    /// The last committed checkpoint — what a power cut recovers from.
    committed: Option<CheckpointRecord>,
    /// Snapshot currently being programmed, if any.
    job: Option<CkptJob>,
    /// Stamp-counter value at the last checkpoint trigger.
    last_stamp: u64,
}

struct CkptJob {
    record: CheckpointRecord,
    /// Next snapshot page to program, `0..pages_per_snapshot`.
    next_page: u32,
}

/// Merge observability: scheme-level merge kinds (from the hybrid FTL)
/// plus flash-level merge traffic (from the controller).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeCounters {
    pub switch_merges: u64,
    pub partial_merges: u64,
    pub full_merges: u64,
    pub refresh_merges: u64,
    pub moves: u64,
    pub stale: u64,
    pub fillers: u64,
    pub erases: u64,
}

/// Controller counters.
#[derive(Debug, Clone, Default)]
pub struct CtrlStats {
    /// Flash operations issued, per class.
    pub issued: ClassTable,
    /// Per-class queue waiting time (µs).
    pub wait_us: Vec<OnlineStats>,
    pub app_reads_completed: u64,
    pub app_writes_completed: u64,
    pub trims_completed: u64,
    /// GC page migrations finished.
    pub gc_moves: u64,
    /// Migrations dropped because the page was superseded mid-flight.
    pub gc_stale: u64,
    /// Victim pages already invalid at move time (free reclamation).
    pub gc_skipped: u64,
    pub gc_erases: u64,
    pub wl_erases: u64,
    pub wl_moves: u64,
    pub mapping_fetches: u64,
    pub mapping_writebacks: u64,
    /// Hybrid-FTL merge copies committed (page landed and was still live).
    pub merge_moves: u64,
    /// Merge copies superseded mid-flight (programmed then invalidated).
    pub merge_stale: u64,
    /// Filler programs keeping merge destinations in NAND page order
    /// across unmapped holes.
    pub merge_fillers: u64,
    /// Erases of merge-retired blocks (log victims and old data blocks).
    pub merge_erases: u64,
    /// Blocks retired after exhausting erase endurance.
    pub bad_blocks_retired: u64,
    /// Mapping checkpoints committed (crash-recovery anchors).
    pub checkpoints_committed: u64,
    /// Snapshot pages programmed into the reserved checkpoint slots.
    pub checkpoint_pages: u64,
    /// Program-status failures remapped to a fresh allocation (the failed
    /// program's block is retired as grown bad).
    pub program_remaps: u64,
    /// Transient erase failures retried in place.
    pub erase_retries: u64,
    /// Scrub refresh jobs started (block evacuations driven by the
    /// read-disturb / retention thresholds).
    pub scrub_refreshes: u64,
    /// Erases completing scrub refreshes.
    pub scrub_erases: u64,
}

/// Media-reliability observables, assembled from the fault model's
/// counters and the controller's fault-handling paths. Only meaningful —
/// and only reported — when a fault model is configured
/// (`ControllerConfig::fault`); without one every field would be zero and
/// the harness omits the columns entirely.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityStats {
    /// Reads sampled through the ECC path.
    pub reads_sampled: u64,
    /// Raw bit errors corrected across all reads.
    pub corrected_bits: u64,
    /// Read-retry tiers consumed (each cost a full extra array read).
    pub read_retries: u64,
    /// Reads left uncorrectable after the final retry tier.
    pub uncorrectable_reads: u64,
    /// Program-status failures reported by the medium.
    pub program_fails: u64,
    /// Erase failures reported by the medium (transient and terminal).
    pub erase_fails: u64,
    /// Blocks retired as grown bad (program-fail marks and erase-failure
    /// streaks; endurance wear-out is counted in `bad_blocks_retired`).
    pub grown_bad_blocks: u64,
    /// Failed programs the controller remapped to a fresh allocation.
    pub program_remaps: u64,
    /// Transient erase failures the controller retried.
    pub erase_retries: u64,
    /// ScrubRead operations issued through the scheduler.
    pub scrub_reads: u64,
    /// ScrubWrite operations issued through the scheduler.
    pub scrub_writes: u64,
    /// Scrub refresh jobs started.
    pub scrub_refreshes: u64,
    /// Distinct logical pages whose content hit uncorrectable bit errors
    /// (the lost-data ledger).
    pub lost_lpns: u64,
    /// Uncorrectable bit error rate: uncorrectable reads over total bits
    /// read through the ECC path.
    pub uber: f64,
}

impl CtrlStats {
    fn new() -> Self {
        CtrlStats {
            wait_us: vec![OnlineStats::new(); OpClass::ALL.len()],
            ..Default::default()
        }
    }
}

/// The simulated SSD controller.
pub struct Controller {
    array: FlashArray,
    ftl: FtlKind,
    alloc: Allocator,
    cfg: ControllerConfig,
    mem: MemoryManager,
    rng: SimRng,
    detector: MultiBloomDetector,
    /// The agenda: flash completions and resource wake-ups, popped in
    /// `(time, seq)` order.
    events: EventQueue<CtrlEvent>,
    pending: PendingSet<PendingOp>,
    /// Pending GC moves by source page (ppn → slot) while they wait on a
    /// resource lane, so superseding the page can re-thread the move onto
    /// its scan queue (see [`Self::invalidate_ppn`]).
    pending_moves: BTreeMap<Ppn, u32>,
    /// Dispatch work so far (see [`Controller::dispatch_probes`]).
    probes: DispatchProbes,
    /// Dispatch by the full-scan rule instead of lanes: the oracle the
    /// unit tests compare whole runs against.
    #[cfg(test)]
    full_scan_dispatch: bool,
    /// Reusable scratch for one scheduling round's head candidates
    /// (`(key, slot)`), keys-only view, write memo and hybrid-write scan —
    /// kept on the controller so steady-state dispatch never allocates.
    sched_cand: Vec<(SchedKey, u32)>,
    sched_keys: Vec<SchedKey>,
    write_memo: WriteMemo,
    hybrid_scratch: Vec<(u64, Lpn)>,
    lun_scratch: Vec<bool>,
    op_seq: u64,
    app: BTreeMap<RequestId, AppIo>,
    jobs: Vec<Option<ReclaimJob>>,
    merge_jobs: Vec<Option<MergeJob>>,
    /// At most one merge runs at a time: it bounds destination-block use
    /// and keeps fold programs in NAND page order.
    merge_active: bool,
    fetches: BTreeMap<u64, FetchJob>,
    wb_jobs: Vec<Option<WbJob>>,
    reverse: Vec<Option<PageContent>>,
    victims: BTreeSet<BlockAddr>,
    reclaim_active: Vec<u32>,
    buffer: Option<WriteBuffer>,
    flushes_inflight: u32,
    /// Lifecycle-span collector (`ObsConfig::span_capacity > 0`). Boxed
    /// so the disabled default costs one pointer; pure observation — it
    /// never feeds back into scheduling, timing or the RNG.
    obs: Option<Box<Obs>>,
    /// Context of the op currently being issued (see [`ObsCur`]).
    obs_cur: ObsCur,
    logical_pages: u64,
    serviced: ClassTable,
    stats: CtrlStats,
    erases_since_wl: u32,
    completions: Vec<Completion>,
    /// Next OOB program stamp (monotone over the device's whole life —
    /// remount resumes it above every stamp the scan saw).
    stamp_next: u64,
    /// Stamps of data/translation programs whose mapping effect has not
    /// landed yet; their minimum bounds the checkpoint watermark, so a
    /// snapshot never claims to cover an entry it cannot contain.
    inflight_stamps: BTreeSet<u64>,
    stamp_by_ppn: BTreeMap<Ppn, u64>,
    /// Periodic mapping checkpoint, when configured.
    ckpt: Option<CkptState>,
    /// Trim journal for the next checkpoint (only maintained when
    /// checkpointing is configured): lpn → the content version (`seq`) of
    /// the copy the trim discarded. Snapshotted into each
    /// [`CheckpointRecord`] so checkpoint replay rejects stale copies of
    /// trimmed pages instead of resurrecting them; pruned once the page
    /// is mapped again (any newer copy outranks the barrier by itself).
    /// Deterministically ordered so snapshots are reproducible.
    trim_barriers: BTreeMap<Lpn, u64>,
    /// The lost-data ledger: logical pages whose content hit uncorrectable
    /// bit errors. Deterministically ordered; only populated with a fault
    /// model installed.
    lost_lpns: BTreeSet<Lpn>,
    /// Flash ops issued since the scrubber last looked for a victim.
    ops_since_scrub: u64,
    /// Scrub refresh jobs currently in flight (bounded by
    /// `ScrubConfig::max_inflight`).
    scrub_inflight: usize,
}

impl Controller {
    /// Build a controller over a fresh flash array.
    pub fn new(
        geometry: Geometry,
        timing: TimingSpec,
        cfg: ControllerConfig,
    ) -> Result<Self, String> {
        geometry.validate()?;
        timing.validate()?;
        cfg.validate()?;
        let logical_pages =
            ((geometry.total_pages() as f64) * cfg.logical_capacity).floor() as u64;
        if logical_pages == 0 {
            return Err("logical capacity rounds to zero pages".into());
        }
        let entries_per_tp = (geometry.page_size as u64 / 8).max(1);
        let ftl = match cfg.mapping {
            MappingKind::PageMap => FtlKind::PageMap(PageMap::new(logical_pages)),
            MappingKind::Dftl { cmt_entries } => {
                FtlKind::Dftl(Box::new(Dftl::new(logical_pages, cmt_entries, entries_per_tp)))
            }
            MappingKind::Hybrid { log_blocks, merge } => {
                let lbns = logical_pages.div_ceil(geometry.pages_per_block as u64);
                let spare = geometry.total_blocks() as i64 - lbns as i64;
                // SW log block + one merge destination + slack for
                // erase-pending blocks.
                let need = log_blocks as i64 + 3;
                if spare < need {
                    return Err(format!(
                        "hybrid log budget {log_blocks} does not fit: {spare} spare \
                         blocks ({} total − {lbns} data), need ≥ {need}",
                        geometry.total_blocks()
                    ));
                }
                FtlKind::Hybrid(Box::new(Hybrid::new(
                    logical_pages,
                    geometry.pages_per_block,
                    log_blocks,
                    merge,
                )))
            }
        };
        let mut mem = MemoryManager::new(cfg.ram_bytes, cfg.battery_ram_bytes);
        mem.reserve(MemoryKind::Ram, "mapping", ftl.ram_bytes())?;
        let buffer = if cfg.write_buffer_pages > 0 {
            mem.reserve(
                MemoryKind::BatteryBackedRam,
                "write-buffer",
                cfg.write_buffer_pages * geometry.page_size as u64,
            )?;
            Some(WriteBuffer::new(cfg.write_buffer_pages as usize))
        } else {
            None
        };
        let mut array = FlashArray::new(geometry, timing);
        if let Some(fc) = cfg.fault {
            array.install_fault_model(fc);
        }
        let mut alloc = Allocator::new(geometry, cfg.write_alloc, cfg.wl.dynamic_enabled);
        let tvpns = match &ftl {
            FtlKind::Dftl(d) => d.tvpn_count(),
            _ => 0,
        };
        let ckpt =
            Self::checkpoint_state(&cfg, &geometry, logical_pages, tvpns, &mut mem, &mut alloc)?;
        let obs = cfg
            .obs
            .spans_enabled()
            .then(|| Box::new(Obs::new(cfg.obs.span_capacity)));
        Ok(Controller {
            reverse: vec![None; geometry.total_pages() as usize],
            reclaim_active: vec![0; geometry.total_luns() as usize],
            rng: SimRng::new(cfg.seed),
            detector: MultiBloomDetector::default_detector(),
            array,
            ftl,
            alloc,
            cfg,
            mem,
            events: EventQueue::new(),
            pending: PendingSet::new(),
            pending_moves: BTreeMap::new(),
            probes: DispatchProbes::default(),
            #[cfg(test)]
            full_scan_dispatch: false,
            sched_cand: Vec::new(),
            sched_keys: Vec::new(),
            write_memo: Vec::new(),
            hybrid_scratch: Vec::new(),
            lun_scratch: Vec::new(),
            op_seq: 0,
            app: BTreeMap::new(),
            jobs: Vec::new(),
            merge_jobs: Vec::new(),
            merge_active: false,
            fetches: BTreeMap::new(),
            wb_jobs: Vec::new(),
            victims: BTreeSet::new(),
            buffer,
            flushes_inflight: 0,
            obs,
            obs_cur: ObsCur::default(),
            logical_pages,
            serviced: class_table(0),
            stats: CtrlStats::new(),
            erases_since_wl: 0,
            completions: Vec::new(),
            stamp_next: 1,
            inflight_stamps: BTreeSet::new(),
            stamp_by_ppn: BTreeMap::new(),
            ckpt,
            trim_barriers: BTreeMap::new(),
            lost_lpns: BTreeSet::new(),
            ops_since_scrub: 0,
            scrub_inflight: 0,
        })
    }

    /// Reserve the double-buffered checkpoint slots and account their
    /// staging RAM, when checkpointing is configured.
    fn checkpoint_state(
        cfg: &ControllerConfig,
        geometry: &Geometry,
        logical_pages: u64,
        tvpns: u64,
        mem: &mut MemoryManager,
        alloc: &mut Allocator,
    ) -> Result<Option<CkptState>, String> {
        if cfg.checkpoint_interval_programs == 0 {
            return Ok(None);
        }
        let bytes = (logical_pages + tvpns) * 8;
        let pages = bytes.div_ceil(geometry.page_size as u64).max(1);
        let blocks_per_slot = pages.div_ceil(geometry.pages_per_block as u64).max(1) as usize;
        mem.reserve(MemoryKind::Ram, "checkpoint-staging", bytes)?;
        let mut slots = [Vec::new(), Vec::new()];
        for slot in &mut slots {
            for _ in 0..blocks_per_slot {
                let Some((b, _)) = alloc.take_block() else {
                    return Err(format!(
                        "checkpoint reservation does not fit: need {} spare blocks",
                        2 * blocks_per_slot
                    ));
                };
                slot.push(b);
            }
        }
        Ok(Some(CkptState {
            interval: cfg.checkpoint_interval_programs,
            pages_per_snapshot: pages as u32,
            slots,
            next_slot: 0,
            committed: None,
            job: None,
            last_stamp: 0,
        }))
    }

    /// Number of logical pages the device exports.
    pub fn logical_pages(&self) -> u64 {
        self.logical_pages
    }

    /// The underlying flash array (wear metrics, utilization, counters).
    pub fn array(&self) -> &FlashArray {
        &self.array
    }

    /// Controller counters.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Dispatch work done so far: scheduling rounds and issuability
    /// probes (cumulative since construction or remount).
    pub fn dispatch_probes(&self) -> DispatchProbes {
        self.probes
    }

    /// Internal agenda events processed so far (completions + wake-ups).
    /// One axis of the simulator-throughput metric (`events_per_sec`).
    pub fn events_processed(&self) -> u64 {
        self.events.popped()
    }

    /// Media-reliability counters, or `None` when no fault model is
    /// installed (the default — reliability reporting is strictly opt-in,
    /// so fault-free runs stay byte-identical to builds without it).
    pub fn reliability(&self) -> Option<ReliabilityStats> {
        let fm = self.array.fault()?;
        let c = fm.counters();
        let bits_read = c.reads * self.array.geometry().page_size as u64 * 8;
        Some(ReliabilityStats {
            reads_sampled: c.reads,
            corrected_bits: c.corrected_bits,
            read_retries: c.read_retries,
            uncorrectable_reads: c.uncorrectable_reads,
            program_fails: c.program_fails,
            erase_fails: c.erase_fails,
            grown_bad_blocks: c.grown_bad_blocks,
            program_remaps: self.stats.program_remaps,
            erase_retries: self.stats.erase_retries,
            scrub_reads: self.stats.issued[class_index(OpClass::ScrubRead)],
            scrub_writes: self.stats.issued[class_index(OpClass::ScrubWrite)],
            scrub_refreshes: self.stats.scrub_refreshes,
            lost_lpns: self.lost_lpns.len() as u64,
            uber: if bits_read == 0 {
                0.0
            } else {
                c.uncorrectable_reads as f64 / bits_read as f64
            },
        })
    }

    /// Logical pages whose acknowledged content hit an uncorrectable read
    /// (the lost-data ledger), in ascending LPN order.
    pub fn lost_data(&self) -> impl Iterator<Item = Lpn> + '_ {
        self.lost_lpns.iter().copied()
    }

    /// Total agenda queue operations (schedules + pops) so far: the
    /// event-engine work metric the E18 throughput sweep reports.
    pub fn queue_ops(&self) -> u64 {
        self.events.scheduled() + self.events.popped()
    }

    /// The memory manager (RAM budget introspection).
    pub fn memory(&self) -> &MemoryManager {
        &self.mem
    }

    /// DFTL cost-model counters, when DFTL is configured.
    pub fn dftl_stats(&self) -> Option<crate::ftl::DftlStats> {
        match &self.ftl {
            FtlKind::Dftl(d) => Some(d.stats()),
            _ => None,
        }
    }

    /// Hybrid-FTL scheme counters, when the hybrid mapping is configured.
    pub fn hybrid_stats(&self) -> Option<HybridStats> {
        match &self.ftl {
            FtlKind::Hybrid(h) => Some(h.stats()),
            _ => None,
        }
    }

    /// Combined merge counters: scheme-level merge kinds plus the
    /// controller's flash-level merge traffic. All zero outside the hybrid
    /// mapping.
    pub fn merge_counters(&self) -> MergeCounters {
        let h = self.hybrid_stats().unwrap_or_default();
        MergeCounters {
            switch_merges: h.switch_merges,
            partial_merges: h.partial_merges,
            full_merges: h.full_merges,
            refresh_merges: h.refresh_merges,
            moves: self.stats.merge_moves,
            stale: self.stats.merge_stale,
            fillers: self.stats.merge_fillers,
            erases: self.stats.merge_erases,
        }
    }

    fn hybrid_mut(&mut self) -> &mut Hybrid {
        match &mut self.ftl {
            FtlKind::Hybrid(h) => h,
            _ => panic!("hybrid operation outside hybrid mapping"),
        }
    }

    fn is_hybrid(&self) -> bool {
        matches!(self.ftl, FtlKind::Hybrid(_))
    }

    /// Write amplification: flash programs (including copy-backs and
    /// translation traffic) per completed application write.
    pub fn write_amplification(&self) -> f64 {
        let c = self.array.counters();
        if self.stats.app_writes_completed == 0 {
            return 0.0;
        }
        (c.programs + c.copybacks) as f64 / self.stats.app_writes_completed as f64
    }

    /// Authoritative mapping of `lpn`, bypassing the DFTL cost model.
    /// For tests and invariant checks.
    pub fn peek_mapping(&self, lpn: Lpn) -> Option<Ppn> {
        self.ftl.peek(lpn)
    }

    /// The write buffer, when configured.
    pub fn write_buffer(&self) -> Option<&WriteBuffer> {
        self.buffer.as_ref()
    }

    /// The span collector, when `ObsConfig::span_capacity > 0`.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_deref()
    }

    /// Mutable span collector (the OS layer opens host spans and drains
    /// finished breakdowns through this).
    pub fn obs_mut(&mut self) -> Option<&mut Obs> {
        self.obs.as_deref_mut()
    }

    /// The configured observability knobs.
    pub fn obs_config(&self) -> ObsConfig {
        self.cfg.obs
    }

    /// Display names of the span busy lanes, index-aligned with
    /// [`eagletree_core::Span`] busy-slice lane ids: "misc", then one per
    /// LUN in geometry order ("ch0/lun0", …). For Perfetto export and
    /// gantt rendering.
    pub fn obs_lane_names(&self) -> Vec<String> {
        let g = self.array.geometry();
        std::iter::once("misc".to_string())
            .chain((0..g.channels).flat_map(|c| {
                (0..g.luns_per_channel).map(move |l| format!("ch{c}/lun{l}"))
            }))
            .collect()
    }

    /// Whether `lpn`'s latest contents sit in the write buffer.
    pub fn is_buffered(&self, lpn: Lpn) -> bool {
        self.buffer.as_ref().is_some_and(|b| b.contains(lpn))
    }

    /// True when no work is pending, in flight, or scheduled.
    pub fn is_quiescent(&self) -> bool {
        self.pending.is_empty() && self.events.is_empty() && self.app.is_empty()
    }

    /// Earliest internal event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.events.peek_time()
    }

    /// Submit a request. Completions (possibly instant) are collected by
    /// the next [`Controller::advance`] call.
    pub fn submit(&mut self, req: SsdRequest, now: SimTime) {
        assert!(
            req.lpn < self.logical_pages,
            "lpn {} beyond logical capacity {}",
            req.lpn,
            self.logical_pages
        );
        if let Some(o) = &mut self.obs {
            // The OS layer opens (and binds) host spans at enqueue time so
            // they capture queue wait; for controller-only drivers, open
            // one here covering the device portion.
            if o.request_span(req.id).is_none() {
                let kind = match req.kind {
                    RequestKind::Read => "AppRead",
                    RequestKind::Write => "AppWrite",
                    RequestKind::Trim => "Trim",
                };
                let span = o.open(kind, None, now);
                o.bind_request(req.id, span);
            }
        }
        match req.kind {
            RequestKind::Trim => {
                if let Some(b) = &mut self.buffer {
                    b.remove(req.lpn);
                }
                if let Some(old) = self.ftl.trim(req.lpn) {
                    // Journal the trim for the next checkpoint: remember
                    // the discarded copy's content version so replay can
                    // reject it (and any GC relocation of it, which
                    // inherits the seq) if its block gets re-scanned.
                    // In-flight and later host writes carry newer seqs
                    // and are unaffected.
                    if self.ckpt.is_some() {
                        let seq = self
                            .array
                            .oob(self.array.geometry().page_at(old))
                            .map(|e| e.seq)
                            .unwrap_or(0);
                        let barrier = self.trim_barriers.entry(req.lpn).or_insert(0);
                        *barrier = (*barrier).max(seq);
                    }
                    self.invalidate_ppn(old);
                }
                self.stats.trims_completed += 1;
                self.completions.push(Completion { id: req.id, at: now });
                if let Some(o) = &mut self.obs {
                    o.close_request(req.id, now);
                }
            }
            RequestKind::Write if self.buffer.is_some() => {
                // Battery-backed buffering: durable on arrival.
                self.detector.record_write(req.lpn);
                self.buffer.as_mut().unwrap().write(req.lpn);
                self.stats.app_writes_completed += 1;
                self.completions.push(Completion { id: req.id, at: now });
                if let Some(o) = &mut self.obs {
                    o.close_request(req.id, now);
                }
                self.maybe_flush(now);
            }
            RequestKind::Read
                if self
                    .buffer
                    .as_ref()
                    .is_some_and(|b| b.contains(req.lpn)) =>
            {
                // Served from the buffer: no flash IO.
                self.buffer.as_mut().unwrap().note_read_hit();
                self.stats.app_reads_completed += 1;
                self.completions.push(Completion { id: req.id, at: now });
                if let Some(o) = &mut self.obs {
                    o.close_request(req.id, now);
                }
            }
            RequestKind::Read | RequestKind::Write => {
                if req.kind == RequestKind::Write {
                    self.detector.record_write(req.lpn);
                }
                let prev = self.app.insert(
                    req.id,
                    AppIo {
                        req,
                        pinned: false,
                    },
                );
                assert!(prev.is_none(), "duplicate in-flight request id {}", req.id);
                self.start_or_park(req.id, now);
            }
        }
        self.drain_ftl_writebacks(now);
        self.run_sched(now);
    }

    /// Process internal events up to and including `now`; return completed
    /// requests.
    pub fn advance(&mut self, now: SimTime) -> Vec<Completion> {
        while let Some(t) = self.events.peek_time() {
            if t > now {
                break;
            }
            let ev = self.events.pop().expect("peeked event");
            match ev.payload {
                CtrlEvent::Wake => {}
                CtrlEvent::Done(d) => self.handle_done(d, ev.time),
            }
            self.run_sched(ev.time);
        }
        std::mem::take(&mut self.completions)
    }

    // ----- submission plumbing -------------------------------------------

    /// Resolve the mapping for an application IO and enqueue its first
    /// flash op, or park it on a translation fetch.
    fn start_or_park(&mut self, id: RequestId, now: SimTime) {
        let (lpn, kind, tags) = {
            let io = &self.app[&id];
            (io.req.lpn, io.req.kind, io.req.tags)
        };
        match self.ftl.lookup(lpn, true) {
            MapLookup::Ready(ppn) => {
                self.app.get_mut(&id).unwrap().pinned = true;
                match kind {
                    RequestKind::Read => {
                        if ppn.is_none() {
                            // Never written: zero-fill semantics, no flash IO.
                            self.complete_app(id, now);
                        } else {
                            self.enqueue(
                                OpClass::AppRead,
                                tags.priority,
                                now,
                                PendKind::AppRead { id, lpn },
                            );
                        }
                    }
                    RequestKind::Write if self.is_hybrid() => {
                        // The log-block discipline binds the destination;
                        // streams and LUN policies do not apply.
                        self.enqueue(
                            OpClass::AppWrite,
                            tags.priority,
                            now,
                            PendKind::HybridWrite {
                                what: HybridWhat::App { id, lpn },
                            },
                        );
                    }
                    RequestKind::Write => {
                        let stream = self.stream_for(lpn, tags);
                        let lun = match self.cfg.write_alloc {
                            crate::config::WriteAllocPolicy::Striping => {
                                Some(self.alloc.striped_lun(lpn))
                            }
                            _ => None,
                        };
                        self.enqueue(
                            OpClass::AppWrite,
                            tags.priority,
                            now,
                            PendKind::Write {
                                lun,
                                stream,
                                what: WriteWhat::App { id, lpn },
                            },
                        );
                    }
                    RequestKind::Trim => unreachable!("trims complete at submit"),
                }
            }
            MapLookup::NeedsFetch(tvpn) => {
                self.park_on_fetch(Waiter::Request(id), tvpn, now);
            }
        }
    }

    fn park_on_fetch(&mut self, waiter: Waiter, tvpn: u64, now: SimTime) {
        self.stats.mapping_fetches += 1;
        if let Some(f) = self.fetches.get_mut(&tvpn) {
            f.waiting.push(waiter);
        } else {
            if let Some(o) = &mut self.obs {
                // Link the fetch span to the request it stalls (or the
                // flush policy) rather than the generic mapping policy.
                let cause = match waiter {
                    Waiter::Request(id) => o
                        .request_span(id)
                        .map_or(Cause::Policy("mapping"), Cause::Op),
                    Waiter::Flush { .. } => Cause::Policy("flush"),
                };
                o.set_cause(cause);
            }
            self.fetches.insert(
                tvpn,
                FetchJob {
                    waiting: vec![waiter],
                },
            );
            self.enqueue(
                OpClass::MappingRead,
                None,
                now,
                PendKind::MapFetchRead { tvpn },
            );
            if let Some(o) = &mut self.obs {
                o.set_cause(Cause::None);
            }
        }
    }

    /// Kick background flushes while the buffer is at capacity.
    fn maybe_flush(&mut self, now: SimTime) {
        let Some(b) = &mut self.buffer else { return };
        if !b.needs_flush() || self.flushes_inflight > 0 {
            return;
        }
        let candidates = b.next_flush_candidates();
        for (lpn, version) in candidates {
            self.start_flush(lpn, version, now);
        }
    }

    /// Resolve the mapping for a buffered page and enqueue its program.
    fn start_flush(&mut self, lpn: Lpn, version: u64, now: SimTime) {
        match self.ftl.lookup(lpn, true) {
            MapLookup::Ready(_) => {
                self.flushes_inflight += 1;
                if self.is_hybrid() {
                    self.enqueue(
                        OpClass::AppWrite,
                        None,
                        now,
                        PendKind::HybridWrite {
                            what: HybridWhat::Flush { lpn, version },
                        },
                    );
                    return;
                }
                let stream = self.stream_for(lpn, crate::types::IoTags::none());
                self.enqueue(
                    OpClass::AppWrite,
                    None,
                    now,
                    PendKind::Write {
                        lun: None,
                        stream,
                        what: WriteWhat::Flush { lpn, version },
                    },
                );
            }
            MapLookup::NeedsFetch(tvpn) => {
                self.park_on_fetch(Waiter::Flush { lpn, version }, tvpn, now);
            }
        }
    }

    /// The write stream for an application write: open-interface locality
    /// and temperature hints first, then the on-device detector.
    fn stream_for(&self, lpn: Lpn, tags: crate::types::IoTags) -> Stream {
        if self.cfg.honor_locality {
            if let Some(g) = tags.locality_group {
                return Stream::Locality(g);
            }
        }
        let temp = match self.cfg.temperature {
            TemperatureMode::Off => return Stream::Hot,
            TemperatureMode::Detector => self.detector.classify(lpn),
            TemperatureMode::Hints => tags
                .temperature
                .unwrap_or_else(|| self.detector.classify(lpn)),
        };
        match temp {
            Temperature::Hot => Stream::Hot,
            Temperature::Cold => Stream::Cold,
        }
    }

    fn enqueue(&mut self, class: OpClass, tag: Option<u8>, now: SimTime, kind: PendKind) {
        let seq = self.op_seq;
        self.op_seq += 1;
        let span = if self.obs.is_none() {
            NO_SPAN
        } else {
            match Self::pend_request(&kind) {
                // Host-bound phase: continue the request's lifecycle span.
                Some(id) => self
                    .obs
                    .as_ref()
                    .and_then(|o| o.request_span(id))
                    .unwrap_or(NO_SPAN),
                // Internal op: open a fresh span, causally linked to the
                // job/policy that spawned it.
                None => {
                    let cause = self.pend_cause(&kind);
                    match (self.obs.as_mut(), cause) {
                        (Some(o), Cause::None) => o.open_internal(class.name(), now),
                        (Some(o), c) => o.open_caused(class.name(), now, c),
                        (None, _) => NO_SPAN,
                    }
                }
            }
        };
        let key = match kind {
            PendKind::Transfer { .. } => QueueKey::Transfer,
            _ => QueueKey::Class(class, tag),
        };
        let lane = self.lane_key(&kind);
        let slot = self.pending.insert(
            key,
            lane,
            PendingOp {
                seq,
                class,
                tag,
                enqueued_at: now,
                kind,
                span,
            },
        );
        if let (PendKind::GcMove { from, .. }, Some(_)) = (kind, lane) {
            self.pending_moves
                .insert(self.array.geometry().page_index(from), slot);
        }
    }

    /// The application request a pending op serves directly, if any —
    /// such ops continue the request's lifecycle span instead of opening
    /// an internal one.
    fn pend_request(kind: &PendKind) -> Option<RequestId> {
        match kind {
            PendKind::AppRead { id, .. } => Some(*id),
            PendKind::Write {
                what: WriteWhat::App { id, .. },
                ..
            } => Some(*id),
            PendKind::HybridWrite {
                what: HybridWhat::App { id, .. },
            } => Some(*id),
            PendKind::Transfer {
                then: AfterXfer::App { id },
                ..
            } => Some(*id),
            _ => None,
        }
    }

    /// Span cause for an op spawned by an [`IoSource`]-attributed job.
    fn source_cause(source: IoSource) -> Cause {
        Cause::Policy(match source {
            IoSource::Application => "host",
            IoSource::GarbageCollection => "gc",
            IoSource::WearLeveling => "wear-leveling",
            IoSource::Mapping => "mapping",
            IoSource::Merge => "merge",
            IoSource::Scrub => "scrub",
        })
    }

    /// Derive the cause of an internal op structurally from its pending
    /// kind: GC/WL/merge phases point at their job's source policy,
    /// mapping and checkpoint traffic at theirs. `MapFetchRead` returns
    /// [`Cause::None`] so the ambient cause context set by
    /// [`Self::park_on_fetch`] (which links the stalled *request*) wins.
    fn pend_cause(&self, kind: &PendKind) -> Cause {
        let job_cause = |job: usize| {
            self.jobs[job]
                .as_ref()
                .map_or(Cause::Policy("gc"), |j| Self::source_cause(j.source))
        };
        let merge_cause = |mj: usize| {
            self.merge_jobs[mj]
                .as_ref()
                .map_or(Cause::Policy("merge"), |j| Self::source_cause(j.source))
        };
        match kind {
            PendKind::GcMove { job, .. } => job_cause(*job),
            PendKind::Erase { owner, .. } => match owner {
                EraseOwner::Reclaim { job } => job_cause(*job),
                EraseOwner::Merge { source, .. } => Self::source_cause(*source),
                EraseOwner::Checkpoint => Cause::Policy("checkpoint"),
            },
            PendKind::Write {
                what: WriteWhat::Gc { job, .. },
                ..
            } => job_cause(*job),
            PendKind::Write {
                what: WriteWhat::Translation { .. },
                ..
            }
            | PendKind::WbRead { .. } => Cause::Policy("mapping-writeback"),
            PendKind::Write {
                what: WriteWhat::Flush { .. },
                ..
            }
            | PendKind::HybridWrite {
                what: HybridWhat::Flush { .. },
            } => Cause::Policy("flush"),
            PendKind::MergeRead { mj } | PendKind::MergeProgram { mj, .. } => merge_cause(*mj),
            PendKind::CkptWrite => Cause::Policy("checkpoint"),
            PendKind::Transfer { then, .. } => match then {
                AfterXfer::Gc { job, .. } => job_cause(*job),
                AfterXfer::MapFetch { .. } => Cause::Policy("mapping"),
                AfterXfer::Wb { .. } => Cause::Policy("mapping-writeback"),
                AfterXfer::Merge { mj, .. } => merge_cause(*mj),
                AfterXfer::App { .. } => Cause::None,
            },
            _ => Cause::None,
        }
    }

    /// Lane key for ops whose issuability is a pure function of one
    /// resource — the contract a `PendingSet` lane requires (the lane
    /// head's verdict then covers the whole lane):
    ///
    /// * writes: `(LUN, stream)`;
    /// * GC moves and erases: their LUN. Both need an idle LUN and a free
    ///   channel (`can_issue` treats a read start like an erase). A move
    ///   whose source is already superseded is issuable anywhere, so it
    ///   goes to the scan queue instead — as does a laned move superseded
    ///   later ([`Self::invalidate_ppn`]).
    ///
    /// Everything else goes to the group's order-scan queue.
    fn lane_key(&self, kind: &PendKind) -> LaneKey {
        let g = self.array.geometry();
        let lun = match kind {
            PendKind::Write { lun, stream, .. } => {
                let s = match stream {
                    Stream::Hot => 0u64,
                    Stream::Cold => 1,
                    Stream::Gc => 2,
                    Stream::Translation => 3,
                    Stream::Locality(g) => 4 + u64::from(*g),
                };
                return Some((lun.map_or(0, |l| u64::from(l) + 1) << 40) | s);
            }
            PendKind::GcMove { from, .. }
                if self.reverse[g.page_index(*from) as usize].is_some() =>
            {
                g.lun_index(from.channel, from.lun)
            }
            PendKind::Erase { block, .. } => g.lun_index(block.channel, block.lun),
            _ => return None,
        };
        Some(RESOURCE_LANE | u64::from(lun))
    }

    /// Issue a flash command whose resources the scheduler verified free,
    /// recording its busy window on the current op's span. Returns the
    /// flash timing outcome.
    fn issue_cmd(&mut self, cmd: FlashCommand, now: SimTime) -> eagletree_flash::IssueOutcome {
        let out = self
            .array
            .issue(cmd, now)
            .unwrap_or_else(|e| panic!("scheduler issued invalid command: {e}"));
        if self.obs_cur.span != NO_SPAN {
            if let Some(o) = &mut self.obs {
                // Busy lane 0 is "misc"; each LUN has its own (see
                // `obs_lane_names`).
                let lane = 1 + self
                    .array
                    .geometry()
                    .lun_index(cmd.channel(), cmd.lun());
                // ECC read-retry rounds extend the busy window; attribute
                // the extra rounds' share of it to the Retry stage.
                let retry = match out.fault {
                    Some(FaultEvent::Read(r)) if r.retries > 0 => {
                        let busy = out.done_at.saturating_since(now);
                        busy * r.retries as u64 / (r.retries as u64 + 1)
                    }
                    _ => SimDuration::ZERO,
                };
                o.on_issue(
                    self.obs_cur.span,
                    lane,
                    now,
                    out.done_at,
                    retry,
                    self.obs_cur.enqueued_at,
                    self.obs_cur.host,
                );
            }
        }
        out
    }

    /// Close the current op's internal span without a flash command —
    /// for pending ops consumed at issue time with no NAND work (a
    /// RAM-resolved map fetch, a superseded GC move, a trimmed merge
    /// source, a skipped writeback read). Host-bound spans stay open:
    /// the request's completion closes them.
    fn obs_close_cur(&mut self, now: SimTime) {
        if self.obs_cur.span != NO_SPAN && !self.obs_cur.host {
            if let Some(o) = &mut self.obs {
                o.close(self.obs_cur.span, now);
            }
        }
    }

    fn complete_app(&mut self, id: RequestId, now: SimTime) {
        if let Some(o) = &mut self.obs {
            o.close_request(id, now);
        }
        let io = self.app.remove(&id).expect("completing unknown request");
        if io.pinned {
            self.ftl.unpin(io.req.lpn);
        }
        match io.req.kind {
            RequestKind::Read => self.stats.app_reads_completed += 1,
            RequestKind::Write => self.stats.app_writes_completed += 1,
            RequestKind::Trim => {}
        }
        self.completions.push(Completion { id, at: now });
    }

    /// The one place a page that may still have a pending GC move is
    /// superseded: such a move no longer waits on its LUN, so it leaves
    /// its resource lane for the scan queue, in seq order.
    fn invalidate_ppn(&mut self, ppn: Ppn) {
        let addr = self.array.geometry().page_at(ppn);
        self.array.invalidate(addr);
        self.reverse[ppn as usize] = None;
        if let Some(slot) = self.pending_moves.remove(&ppn) {
            self.pending.move_to_scan(slot, |op| op.seq);
        }
    }

    // ----- OOB stamping (the durable half of the mapping) -----------------

    fn fresh_stamp(&mut self) -> u64 {
        let s = self.stamp_next;
        self.stamp_next += 1;
        s
    }

    /// The content version a relocation inherits from its source page.
    fn source_seq(&self, src_ppn: Ppn) -> u64 {
        self.array
            .oob(self.array.geometry().page_at(src_ppn))
            .expect("live relocation source carries OOB")
            .seq
    }

    /// Persist the OOB record of a data/translation program the scheduler
    /// just issued, and track its stamp until the mapping effect lands
    /// (the minimum outstanding stamp bounds the checkpoint watermark).
    /// `seq`: `None` = fresh content version (host/translation write),
    /// `Some` = inherited from a relocation source (GC / WL / merge copy —
    /// the copy must never outrank a newer host write).
    fn stamp_program(&mut self, addr: PhysicalAddr, tag: OobTag, seq: Option<u64>) {
        let stamp = self.fresh_stamp();
        let seq = seq.unwrap_or(stamp);
        self.array.set_oob(addr, OobEntry { tag, seq, stamp });
        let ppn = self.array.geometry().page_index(addr);
        self.inflight_stamps.insert(stamp);
        let prev = self.stamp_by_ppn.insert(ppn, stamp);
        debug_assert!(prev.is_none(), "page programmed twice without landing");
    }

    /// The program at `ppn` has landed (mapping effect applied or
    /// discarded): release its stamp from the watermark bound.
    fn stamp_landed(&mut self, ppn: Ppn) {
        if let Some(s) = self.stamp_by_ppn.remove(&ppn) {
            self.inflight_stamps.remove(&s);
        }
    }

    /// OOB tag for a page holding `content`.
    fn content_tag(content: PageContent) -> OobTag {
        match content {
            PageContent::Data(lpn) => OobTag::Data { lpn },
            PageContent::Translation(tvpn) => OobTag::Translation { tvpn },
            PageContent::Checkpoint(slot) => OobTag::Checkpoint { slot },
        }
    }

    // ----- garbage collection & wear leveling ----------------------------

    fn reclaim_skip_set(&self) -> impl Fn(BlockAddr) -> bool + '_ {
        move |b: BlockAddr| {
            self.victims.contains(&b)
                || self.alloc.is_free(b)
                || self.alloc.is_active(b)
                || self.is_ckpt_reserved(b)
        }
    }

    /// Whether `b` is one of the reserved checkpoint blocks (never a GC or
    /// wear-leveling victim; its pages are retired by checkpoint commits).
    fn is_ckpt_reserved(&self, b: BlockAddr) -> bool {
        self.ckpt
            .as_ref()
            .is_some_and(|c| c.slots.iter().any(|s| s.contains(&b)))
    }

    /// Effective GC trigger threshold: collect while `free < floor`.
    ///
    /// The floor is at least 2 regardless of the configured greediness:
    /// the allocator reserves the last free block for internal streams, so
    /// application writes need two free blocks to open a fresh one —
    /// a floor of 1 would deadlock (GC never triggers, app never writes).
    /// Strictly-below is essential: triggering at equality makes GC
    /// repack the device forever once free blocks settle at the threshold.
    fn gc_floor(&self) -> usize {
        (self.cfg.gc.greediness as usize).max(2)
    }

    fn maybe_gc(&mut self, lun: u32, now: SimTime) {
        while self.alloc.free_blocks(lun) < self.gc_floor()
            && self.reclaim_active[lun as usize] == 0
        {
            let victim = {
                let mut rng = self.rng.clone();
                let skip = self.reclaim_skip_set();
                let v = pick_victim(&self.array, lun, self.cfg.gc.victim, skip, &mut rng, now);
                self.rng = rng;
                v
            };
            let Some(victim) = victim else { break };
            self.start_reclaim(victim, lun, IoSource::GarbageCollection, now);
        }
    }

    /// Refresh a block for `source` — static wear leveling (a young idle
    /// block) or scrubbing (past the read-disturb / retention thresholds).
    /// Page-mapped schemes evacuate and erase it through the reclaim
    /// machinery. The hybrid scheme refreshes a *data* block by folding its
    /// logical block to a fresh destination, the relocation that preserves
    /// the block-mapping discipline, one merge at a time. Its log blocks
    /// are skipped: merges churn them anyway. Returns whether a refresh
    /// started.
    fn start_refresh(&mut self, source: IoSource, now: SimTime) -> bool {
        let FtlKind::Hybrid(h) = &self.ftl else {
            let Some(victim) = self.refresh_victim(source, now, self.reclaim_skip_set()) else {
                return false;
            };
            let lun = self.array.geometry().lun_index(victim.channel, victim.lun);
            self.start_reclaim(victim, lun, source, now);
            return true;
        };
        if self.merge_active {
            return false;
        }
        let g = *self.array.geometry();
        let logs: BTreeSet<Ppn> = h.log_bases().into_iter().collect();
        let data = h.data_block_map();
        let skip = |b: BlockAddr| {
            let base = g.page_index(b.page(0));
            logs.contains(&base) || !data.contains_key(&base)
        };
        let Some(victim) = self.refresh_victim(source, now, skip) else {
            return false;
        };
        let lbn = data[&g.page_index(victim.page(0))];
        self.hybrid_mut().note_refresh_merge();
        let fold = FoldPlan {
            lbn,
            reuse: None,
            start: 0,
        };
        self.start_merge_job(MergeJob::new(source, None, vec![fold]), now);
        true
    }

    /// The block `source`'s refresh policy picks, outside `skip`.
    fn refresh_victim(
        &self,
        source: IoSource,
        now: SimTime,
        skip: impl Fn(BlockAddr) -> bool,
    ) -> Option<BlockAddr> {
        match source {
            IoSource::Scrub => pick_scrub_victim(&self.array, self.cfg.scrub.as_ref()?, now, skip),
            _ => pick_wl_victim(&self.array, now, &self.cfg.wl, skip),
        }
    }

    // ----- background scrubbing -------------------------------------------

    /// Every `check_every_ops` issued flash ops, look for a block whose
    /// read-disturb count or retention age crossed the scrub thresholds
    /// and refresh it (see [`Self::start_refresh`]). The refresh IO rides
    /// the scheduler as `ScrubRead`/`ScrubWrite`, competing with
    /// application traffic under the configured policy.
    fn maybe_scrub(&mut self, now: SimTime) {
        let Some(sc) = self.cfg.scrub else { return };
        if self.ops_since_scrub < sc.check_every_ops {
            return;
        }
        self.ops_since_scrub = 0;
        if self.scrub_inflight < sc.max_inflight && self.start_refresh(IoSource::Scrub, now) {
            self.scrub_inflight += 1;
            self.stats.scrub_refreshes += 1;
        }
    }

    // ----- injected-fault handling ----------------------------------------

    /// Ledger an uncorrectable read of application data: `lpn` is the
    /// logical page whose content the read carried, if any (translation
    /// and checkpoint pages are rebuilt from RAM state and not ledgered).
    fn note_read_fault(&mut self, out: &eagletree_flash::IssueOutcome, lpn: Option<Lpn>) {
        if let Some(FaultEvent::Read(o)) = out.fault {
            if o.uncorrectable {
                if let Some(lpn) = lpn {
                    self.lost_lpns.insert(lpn);
                }
            }
        }
    }

    /// The logical page a relocated `content` carries, for the ledger.
    fn content_lpn(content: PageContent) -> Option<Lpn> {
        match content {
            PageContent::Data(lpn) => Some(lpn),
            _ => None,
        }
    }

    fn start_reclaim(&mut self, victim: BlockAddr, lun: u32, source: IoSource, now: SimTime) {
        let valid = self.array.valid_pages_in(victim);
        let job_id = self.jobs.len();
        self.jobs
            .push(Some(ReclaimJob::new(victim, lun, source, valid.len() as u32)));
        self.victims.insert(victim);
        self.reclaim_active[lun as usize] += 1;
        if valid.is_empty() {
            self.enqueue_erase(victim, EraseOwner::Reclaim { job: job_id }, now);
        } else {
            let (class, _) = Self::relocation_classes(source);
            for from in valid {
                self.enqueue(class, None, now, PendKind::GcMove { job: job_id, from });
            }
        }
    }

    fn enqueue_erase(&mut self, block: BlockAddr, owner: EraseOwner, now: SimTime) {
        if let EraseOwner::Reclaim { job } = owner {
            self.jobs[job].as_mut().expect("live job").erase_enqueued = true;
        }
        self.enqueue(OpClass::Erase, None, now, PendKind::Erase { block, owner });
    }

    /// Turn any translation writebacks (DFTL) or switch-merge events
    /// (hybrid) queued inside the FTL into flash work. Called after every
    /// FTL mutation.
    fn drain_ftl_writebacks(&mut self, now: SimTime) {
        let wbs = self.ftl.take_writebacks();
        if !wbs.is_empty() {
            self.spawn_writebacks(wbs, now);
        }
        if let FtlKind::Hybrid(h) = &mut self.ftl {
            let events = h.take_events();
            for HybridEvent::EraseDataBlock { base } in events {
                self.enqueue_merge_erase(IoSource::Merge, base, None, now);
            }
        }
    }

    fn spawn_writebacks(&mut self, wbs: Vec<TranslationWriteback>, now: SimTime) {
        for wb in wbs {
            self.stats.mapping_writebacks += 1;
            let id = self.wb_jobs.len();
            self.wb_jobs.push(Some(WbJob {
                tvpn: wb.tvpn,
                old_ppn: wb.old_ppn,
            }));
            if wb.old_ppn.is_some() {
                self.enqueue(OpClass::MappingRead, None, now, PendKind::WbRead { wb: id });
            } else {
                self.enqueue_translation_write(id, now);
            }
        }
    }

    /// Enqueue translation writeback `wb`'s program.
    fn enqueue_translation_write(&mut self, wb: usize, now: SimTime) {
        self.enqueue(
            OpClass::MappingWrite,
            None,
            now,
            PendKind::Write {
                lun: None,
                stream: Stream::Translation,
                what: WriteWhat::Translation { wb },
            },
        );
    }

    /// Read and write op classes of relocation traffic from `source`:
    /// wear leveling and scrubbing bill to their own classes under every
    /// scheme, hybrid merges to the merge classes, GC to the GC classes.
    fn relocation_classes(source: IoSource) -> (OpClass, OpClass) {
        match source {
            IoSource::WearLeveling => (OpClass::WlRead, OpClass::WlWrite),
            IoSource::Scrub => (OpClass::ScrubRead, OpClass::ScrubWrite),
            IoSource::Merge => (OpClass::MergeRead, OpClass::MergeWrite),
            _ => (OpClass::GcRead, OpClass::GcWrite),
        }
    }

    // ----- hybrid log-block merges ----------------------------------------

    /// React to the hybrid FTL's structural needs: open log blocks for
    /// pending appends, and start (or un-stall) merge jobs when the log
    /// space is exhausted. Runs at the top of every scheduling pass.
    fn hybrid_maintenance(&mut self, now: SimTime) {
        if self.merge_active {
            if let Some(mj) = self
                .merge_jobs
                .iter()
                .position(|j| j.as_ref().is_some_and(|j| j.waiting_for_block))
            {
                self.advance_merge(mj, now);
            }
        }
        // Scan in arrival order: opening log blocks / sealing streams for
        // one write changes what later writes need.
        let mut lpns = std::mem::take(&mut self.hybrid_scratch);
        lpns.clear();
        lpns.extend(self.pending.iter().filter_map(|op| match op.kind {
            PendKind::HybridWrite { what } => Some((op.seq, what.lpn())),
            _ => None,
        }));
        lpns.sort_unstable();
        for &(_, lpn) in &lpns {
            // A switch merge can resolve *synchronously* (the SW block
            // becomes the data block: no copies, no erase, no event). The
            // write that triggered it must then be re-placed in the same
            // pass, or it would sit unissuable over an empty agenda and
            // wedge the simulation. Bounded: each extra round consumes
            // the SW block or ends in a non-merge placement.
            let mut rounds = 0u32;
            while rounds < 4 {
                rounds += 1;
                match self.hybrid_mut().place(lpn) {
                    // Appends issue through the scheduler; stream waiters
                    // hold until the sequential fill catches up (or the
                    // quiescence fallback in `run_sched` merges the
                    // wedged stream).
                    HybridPlace::Append(_) | HybridPlace::AwaitSequential => {}
                    HybridPlace::NeedsLogBlock { sequential } => {
                        if let Some((block, _)) = self.alloc.take_block() {
                            let base = self.array.geometry().page_index(block.page(0));
                            let lbn = sequential.then(|| lpn / self.ppb());
                            self.hybrid_mut().open_log(base, lbn);
                        }
                        // No free block: a pending erase will return one.
                    }
                    HybridPlace::NeedsSeqMerge => {
                        let lbn = lpn / self.ppb();
                        if self.hybrid_mut().retarget_empty_sw(lbn) {
                            break; // the empty SW block changed streams
                        }
                        self.hybrid_mut().seal_sw();
                        if self.merge_active {
                            break;
                        }
                        if self.start_sw_merge(now) && !self.merge_active {
                            // Instant switch: the SW slot freed with no
                            // event pending — re-place this write.
                            continue;
                        }
                    }
                    HybridPlace::NeedsMerge => {
                        if self.merge_active {
                            break;
                        }
                        if let Some(plan) = self.hybrid_mut().take_merge_victim() {
                            let folds = plan
                                .lbns
                                .iter()
                                .map(|&lbn| FoldPlan {
                                    lbn,
                                    reuse: None,
                                    start: 0,
                                })
                                .collect();
                            self.start_merge_job(
                                MergeJob::new(IoSource::Merge, Some(plan.victim), folds),
                                now,
                            );
                        }
                    }
                }
                break;
            }
        }
        self.hybrid_scratch = lpns;
    }

    fn ppb(&self) -> u64 {
        self.array.geometry().pages_per_block as u64
    }

    /// Quiescence fallback for a wedged sequential stream: pending writes
    /// sit ahead of the SW fill pointer (`AwaitSequential`) but the gap
    /// will never arrive. Merge the SW block so they fall back to the
    /// random path. Returns whether anything was kicked off.
    fn unwedge_sequential_stream(&mut self, now: SimTime) -> bool {
        if !self.is_hybrid() || !self.events.is_empty() || self.merge_active {
            return false;
        }
        let wedged = self.pending.iter().any(|op| match op.kind {
            PendKind::HybridWrite { what } => {
                let FtlKind::Hybrid(h) = &self.ftl else { return false };
                h.place(what.lpn()) == HybridPlace::AwaitSequential
            }
            _ => false,
        });
        if !wedged {
            return false;
        }
        self.hybrid_mut().seal_sw();
        self.start_sw_merge(now)
    }

    /// Merge the sealed SW log block, if the scheme hands one out: complete
    /// it in place, or — a superseded prefix cannot be completed in place —
    /// fold elsewhere, then erase the log block. Returns whether a merge
    /// job started.
    fn start_sw_merge(&mut self, now: SimTime) -> bool {
        let Some(plan) = self.hybrid_mut().take_sw_for_merge() else {
            return false;
        };
        let fold = FoldPlan {
            lbn: plan.lbn,
            reuse: plan.reuse_from.map(|_| plan.base),
            start: plan.reuse_from.unwrap_or(0),
        };
        let victim = plan.reuse_from.is_none().then_some(plan.base);
        self.start_merge_job(MergeJob::new(IoSource::Merge, victim, vec![fold]), now);
        true
    }

    fn start_merge_job(&mut self, job: MergeJob, now: SimTime) {
        let mj = self.merge_jobs.len();
        self.merge_jobs.push(Some(job));
        self.merge_active = true;
        self.advance_merge(mj, now);
    }

    /// Drive merge job `mj` forward: enqueue its next copy step, finish
    /// folds, and finally enqueue the victim's erase. Copies run one at a
    /// time so destination programs stay in NAND page order.
    fn advance_merge(&mut self, mj: usize, now: SimTime) {
        loop {
            let job = self.merge_jobs[mj].as_mut().expect("live merge job");
            job.waiting_for_block = false;
            let source = job.source;
            if let Some(cur) = job.cur {
                if cur.next < cur.end {
                    let lpn = cur.lbn * self.ppb() + cur.next as u64;
                    match self.ftl.peek(lpn) {
                        Some(_) => {
                            let (class, _) = Self::relocation_classes(source);
                            self.enqueue(class, None, now, PendKind::MergeRead { mj })
                        }
                        None => self.enqueue_merge_program(mj, None, now),
                    }
                    return;
                }
                // Fold complete: the destination becomes the data block.
                self.merge_jobs[mj].as_mut().unwrap().cur = None;
                self.finish_fold(source, cur.lbn, Some(cur.dest), now);
                continue;
            }
            let Some(plan) = job.folds.pop_front() else {
                // All folds done: erase the victim log block, if any.
                if let Some(v) = job.victim {
                    if !job.victim_erase_enqueued {
                        job.victim_erase_enqueued = true;
                        self.enqueue_merge_erase(source, v, Some(mj), now);
                    }
                    return;
                }
                self.merge_jobs[mj] = None;
                self.merge_active = false;
                return;
            };
            let end = {
                let FtlKind::Hybrid(h) = &self.ftl else {
                    panic!("merge outside hybrid mapping")
                };
                h.fold_end(plan.lbn)
            };
            match plan.reuse {
                Some(base) if end <= plan.start => {
                    // Switch: the log block already holds everything live.
                    self.finish_fold(source, plan.lbn, Some(base), now);
                }
                Some(base) => {
                    self.merge_jobs[mj].as_mut().unwrap().cur = Some(FoldState {
                        lbn: plan.lbn,
                        dest: base,
                        next: plan.start,
                        end,
                    });
                }
                None if end == 0 => {
                    // Nothing live (trimmed away): drop the directory entry.
                    self.finish_fold(source, plan.lbn, None, now);
                }
                None => match self.alloc.take_block() {
                    Some((block, _)) => {
                        let dest = self.array.geometry().page_index(block.page(0));
                        self.merge_jobs[mj].as_mut().unwrap().cur = Some(FoldState {
                            lbn: plan.lbn,
                            dest,
                            next: 0,
                            end,
                        });
                    }
                    None => {
                        // Out of free blocks: park until an erase lands.
                        let job = self.merge_jobs[mj].as_mut().unwrap();
                        job.folds.push_front(plan);
                        job.waiting_for_block = true;
                        return;
                    }
                },
            }
        }
    }

    /// Fold of `lbn` done: `dest` becomes its data block (`None`: nothing
    /// live, the directory entry goes). Erase the data block it replaces.
    fn finish_fold(&mut self, source: IoSource, lbn: u64, dest: Option<Ppn>, now: SimTime) {
        if let Some(old) = self.hybrid_mut().fold_finished(lbn, dest) {
            self.enqueue_merge_erase(source, old, None, now);
        }
    }

    /// Enqueue merge job `mj`'s program of the current fold offset
    /// (`from`: the copied source; `None`: a filler over an unmapped hole).
    fn enqueue_merge_program(&mut self, mj: usize, from: Option<Ppn>, now: SimTime) {
        let source = self.merge_jobs[mj].as_ref().expect("live merge job").source;
        let (_, class) = Self::relocation_classes(source);
        self.enqueue(class, None, now, PendKind::MergeProgram { mj, from });
    }

    fn enqueue_merge_erase(
        &mut self,
        source: IoSource,
        base: Ppn,
        job: Option<usize>,
        now: SimTime,
    ) {
        let block = self.array.geometry().page_at(base).block_addr();
        self.enqueue_erase(block, EraseOwner::Merge { source, job }, now);
    }

    // ----- periodic mapping checkpoints -----------------------------------

    /// Number of translation virtual pages the scheme persists (DFTL).
    fn tvpn_count(&self) -> u64 {
        match &self.ftl {
            FtlKind::Dftl(d) => d.tvpn_count(),
            _ => 0,
        }
    }

    /// Start a checkpoint when the interval elapsed, no snapshot is in
    /// flight, and the target slot is fully erased (its previous
    /// contents' erases may still be queued). Runs at the top of every
    /// scheduling pass.
    fn maybe_checkpoint(&mut self, now: SimTime) {
        let Some(ck) = &self.ckpt else { return };
        if ck.job.is_some() || self.stamp_next.saturating_sub(ck.last_stamp) < ck.interval {
            return;
        }
        let slot = ck.next_slot;
        let ppb = self.array.geometry().pages_per_block as u64;
        if (ck.slots[slot].len() as u64) * ppb < ck.pages_per_snapshot as u64 {
            return; // slot lost blocks to wear-out and found no spares
        }
        let erased = ck.slots[slot].iter().all(|b| {
            let info = self.array.block_info(*b);
            info.write_ptr == 0 && !info.bad && !self.array.block_needs_erase(*b)
        });
        if !erased {
            return;
        }
        // Drop trim barriers that no longer guard anything: once the page
        // is mapped again, every scanned copy that could win for it
        // outranks the barrier by itself, so the filter is redundant.
        let ftl = &self.ftl;
        self.trim_barriers.retain(|&lpn, _| ftl.peek(lpn).is_none());
        let record = self.snapshot_record(slot);
        let ck = self.ckpt.as_mut().expect("checked above");
        ck.last_stamp = self.stamp_next;
        ck.job = Some(CkptJob {
            record,
            next_page: 0,
        });
        self.enqueue(OpClass::MappingWrite, None, now, PendKind::CkptWrite);
    }

    /// Capture the mapping snapshot the next checkpoint persists. The
    /// watermark is held below every outstanding (issued-but-unlanded)
    /// program stamp, so replay re-scans any block that could hold an
    /// entry this snapshot does not yet reflect.
    fn snapshot_record(&self, slot: usize) -> CheckpointRecord {
        let watermark = self
            .inflight_stamps
            .first()
            .map(|&s| s - 1)
            .unwrap_or(self.stamp_next - 1);
        let data = (0..self.logical_pages).map(|l| self.ftl.peek(l)).collect();
        let trans = (0..self.tvpn_count())
            .map(|t| self.ftl.translation_location(t))
            .collect();
        let ck = self.ckpt.as_ref().expect("snapshot without checkpoint state");
        CheckpointRecord {
            watermark,
            data,
            trans,
            slot: slot as u8,
            blocks: ck.slots[slot].clone(),
            trims: self.trim_barriers.iter().map(|(&l, &s)| (l, s)).collect(),
        }
    }

    /// Destination page of the in-flight checkpoint's next program.
    fn ckpt_dest(&self) -> PhysicalAddr {
        let ck = self.ckpt.as_ref().expect("ckpt write without state");
        let job = ck.job.as_ref().expect("ckpt write without job");
        let ppb = self.array.geometry().pages_per_block;
        let block = ck.slots[job.record.slot as usize][(job.next_page / ppb) as usize];
        block.page(job.next_page % ppb)
    }

    /// A newer checkpoint committed: the previous one's pages are garbage.
    /// Invalidate them and queue the slot's erases (the slot becomes the
    /// target of the checkpoint after next once they land).
    fn retire_checkpoint_slot(&mut self, old: CheckpointRecord, now: SimTime) {
        for block in old.blocks {
            let info = self.array.block_info(block);
            if info.write_ptr == 0 {
                continue;
            }
            let g = *self.array.geometry();
            let base = g.page_index(block.page(0));
            for p in 0..info.write_ptr as u64 {
                if self.array.page_state(g.page_at(base + p)) == PageState::Valid {
                    self.invalidate_ppn(base + p);
                }
            }
            self.enqueue_erase(block, EraseOwner::Checkpoint, now);
        }
    }

    // ----- the scheduler ---------------------------------------------------

    /// Channel usable under the interleaving policy: with interleaving off
    /// the controller keeps at most one LUN in flight per channel.
    fn channel_ok(&self, channel: u32, lun_in_channel: u32, now: SimTime) -> bool {
        if self.cfg.interleaving {
            return true;
        }
        let g = self.array.geometry();
        (0..g.luns_per_channel).all(|l| {
            l == lun_in_channel
                || (self.array.lun_free_at(channel, l) <= now
                    && self.array.lun_holding(channel, l).is_none())
        })
    }

    fn cmd_resources_free(&self, cmd: &FlashCommand, now: SimTime) -> bool {
        self.array.can_issue(cmd, now) && self.channel_ok(cmd.channel(), cmd.lun(), now)
    }

    /// LUN (linear) free for a new program right now.
    fn lun_free_for_program(&self, lun: u32, now: SimTime) -> bool {
        let g = self.array.geometry();
        let channel = lun / g.luns_per_channel;
        let l = lun % g.luns_per_channel;
        self.array.channel_free_at(channel) <= now
            && self.array.lun_free_at(channel, l) <= now
            && self.array.lun_holding(channel, l).is_none()
            && self.channel_ok(channel, l, now)
    }

    /// Resources free for a program at exactly `addr` right now, honoring
    /// the cached-programming config gate (the array alone only checks
    /// chip support). Used for hybrid log appends and merge-fold programs,
    /// whose destinations are bound by the log-block discipline.
    fn program_ok(&self, addr: PhysicalAddr, now: SimTime) -> bool {
        self.array.can_issue(&FlashCommand::Program(addr), now)
            && self.channel_ok(addr.channel, addr.lun, now)
            && (self.cfg.use_cached_program
                || self.array.lun_free_at(addr.channel, addr.lun) <= now)
    }

    /// The merge fold step currently executing for job `mj`.
    fn merge_cur(&self, mj: usize) -> FoldState {
        self.merge_jobs[mj]
            .as_ref()
            .expect("live merge job")
            .cur
            .expect("merge op without an active fold")
    }

    /// The logical page at merge job `mj`'s current fold offset.
    fn merge_lpn(&self, mj: usize) -> Lpn {
        let cur = self.merge_cur(mj);
        cur.lbn * self.ppb() + cur.next as u64
    }

    /// A program for `stream` could start on `lun` right now: either the
    /// LUN is idle, or (cached programming) the stream's next page extends
    /// the block the LUN is currently programming.
    fn can_program_on(&self, lun: u32, stream: Stream, now: SimTime) -> bool {
        if !self.alloc.can_alloc(lun, stream) {
            return false;
        }
        if self.lun_free_for_program(lun, now) {
            return true;
        }
        if !self.cfg.use_cached_program {
            return false;
        }
        let g = self.array.geometry();
        let channel = lun / g.luns_per_channel;
        let l = lun % g.luns_per_channel;
        self.channel_ok(channel, l, now)
            && self
                .alloc
                .peek_active(lun, stream)
                .is_some_and(|addr| self.array.can_pipeline(addr, now))
    }

    /// Whether an unbound (or LUN-bound) write could start right now.
    fn write_can_issue(&self, lun: Option<u32>, stream: Stream, now: SimTime) -> bool {
        match lun {
            Some(l) => self.can_program_on(l, stream, now),
            None => {
                let g = self.array.geometry();
                (0..g.total_luns()).any(|l| self.can_program_on(l, stream, now))
            }
        }
    }

    /// A read of `src` could start right now; a read with no source
    /// (`None`) is consumed without flash IO, so it always can.
    fn read_ok(&self, src: Option<Ppn>, now: SimTime) -> bool {
        src.is_none_or(|ppn| {
            let addr = self.array.geometry().page_at(ppn);
            self.cmd_resources_free(&FlashCommand::ReadStart(addr), now)
        })
    }

    /// The page translation writeback `wb` must merge with: its old copy,
    /// unless there is none or it was erased meanwhile (then the program
    /// goes ahead without the read).
    fn wb_source(&self, wb: usize) -> Option<Ppn> {
        let old = self.wb_jobs[wb].as_ref().expect("live wb job").old_ppn;
        let g = self.array.geometry();
        old.filter(|&ppn| self.array.page_state(g.page_at(ppn)) != PageState::Free)
    }

    /// Whether `op` could issue (or be consumed) right now. `memo` caches
    /// write-issuability per `(LUN, stream)` within one scheduling round
    /// (the underlying state only changes when an op actually issues).
    fn op_issuable(&self, op: &PendingOp, now: SimTime, memo: &mut WriteMemo) -> bool {
        match op.kind {
            PendKind::Transfer { addr, .. } => {
                self.cmd_resources_free(&FlashCommand::TransferOut(addr), now)
            }
            PendKind::Erase { block, .. } => {
                self.cmd_resources_free(&FlashCommand::Erase(block), now)
            }
            // Trimmed mid-flight: completes instantly.
            PendKind::AppRead { lpn, .. } => self.read_ok(self.ftl.peek(lpn), now),
            // Resolvable from RAM: consumed instantly.
            PendKind::MapFetchRead { tvpn } => {
                self.read_ok(self.ftl.translation_location(tvpn), now)
            }
            PendKind::WbRead { wb } => self.read_ok(self.wb_source(wb), now),
            PendKind::Write { lun, stream, .. } => {
                if let Some(&(_, ok)) = memo.iter().find(|&&(k, _)| k == (lun, stream)) {
                    return ok;
                }
                let ok = self.write_can_issue(lun, stream, now);
                memo.push(((lun, stream), ok));
                ok
            }
            PendKind::GcMove { from, .. } => {
                if self.reverse[self.array.geometry().page_index(from) as usize].is_none() {
                    return true; // superseded: consumed without flash IO
                }
                self.cmd_resources_free(&FlashCommand::ReadStart(from), now)
            }
            PendKind::HybridWrite { what } => {
                let FtlKind::Hybrid(h) = &self.ftl else { return false };
                match h.place(what.lpn()) {
                    HybridPlace::Append(ppn) => {
                        let addr = self.array.geometry().page_at(ppn);
                        self.program_ok(addr, now)
                    }
                    // Waiting on a log block or a merge (maintenance's job).
                    _ => false,
                }
            }
            // Trimmed since enqueue: reroutes to a filler program.
            PendKind::MergeRead { mj } => self.read_ok(self.ftl.peek(self.merge_lpn(mj)), now),
            PendKind::MergeProgram { mj, .. } => {
                let cur = self.merge_cur(mj);
                let addr = self.array.geometry().page_at(cur.dest + cur.next as u64);
                self.program_ok(addr, now)
            }
            PendKind::CkptWrite => self.program_ok(self.ckpt_dest(), now),
        }
    }

    fn run_sched(&mut self, now: SimTime) {
        // Space maintenance is evaluated here so that every pathway that
        // could change free-space (submissions, completions, erases)
        // funnels through one place. Under the hybrid mapping, log-block
        // merges replace generic GC.
        if self.is_hybrid() {
            self.hybrid_maintenance(now);
        } else {
            let nluns = self.array.geometry().total_luns();
            for lun in 0..nluns {
                if self.alloc.free_blocks(lun) < self.gc_floor() {
                    self.maybe_gc(lun, now);
                }
            }
        }
        self.maybe_checkpoint(now);
        self.maybe_scrub(now);
        // Each round compares at most one candidate per live group (the
        // group's first issuable op dominates the rest of it under every
        // policy), so per-issue cost tracks the number of live (class,
        // tag) groups — not the number of pending ops — and the reused
        // scratch buffers keep the loop allocation-free.
        let mut memo = std::mem::take(&mut self.write_memo);
        let mut probes = self.probes;
        probes.rounds += 1;
        loop {
            memo.clear();
            // Hardware necessity: pending transfers hold LUN registers
            // hostage, so they always go first (from their own group —
            // no scan over non-transfer ops).
            let t = self.first_issuable(
                PendingSet::<PendingOp>::TRANSFER_GROUP,
                now,
                &mut memo,
                &mut probes,
            );
            if t != NO_SLOT {
                self.issue(t, now);
                continue;
            }
            let mut cand = std::mem::take(&mut self.sched_cand);
            cand.clear();
            for q in 1..self.pending.group_count() {
                let slot = self.first_issuable(q, now, &mut memo, &mut probes);
                if slot != NO_SLOT {
                    let op = self.pending.get(slot);
                    cand.push(((op.class, op.tag, op.enqueued_at, op.seq), slot));
                }
            }
            // Policies tie-break by seq: presenting heads in seq order
            // keeps Fair's first-encountered class resolution (and any
            // future order-sensitive policy) deterministic.
            cand.sort_unstable_by_key(|&((_, _, _, seq), _)| seq);
            if cand.is_empty() {
                self.sched_cand = cand;
                if self.unwedge_sequential_stream(now) {
                    // The freed writes may now need log blocks (or the
                    // merge may have resolved instantly): re-run
                    // maintenance before re-scanning the queues.
                    self.hybrid_maintenance(now);
                    continue;
                }
                break;
            }
            let mut keys = std::mem::take(&mut self.sched_keys);
            keys.clear();
            keys.extend(cand.iter().map(|&(k, _)| k));
            let chosen = self
                .cfg
                .sched
                .select(&keys, &self.serviced)
                .expect("non-empty candidates");
            let slot = cand[chosen].1;
            self.sched_keys = keys;
            self.sched_cand = cand;
            self.issue(slot, now);
        }
        self.write_memo = memo;
        self.probes = probes;
    }

    /// First op in `group` that could issue right now, or `NO_SLOT`.
    ///
    /// The group's order-scan queue is probed in seq order; each lane
    /// contributes only its head (a blocked head proves the lane blocked
    /// — all its ops share one issuability predicate). The min-seq winner
    /// is exactly the op a single merged FIFO would have yielded: a lane
    /// head has the smallest seq of its key, and any issuable lane op
    /// implies its head (same predicate, smaller seq) is issuable too.
    /// Debug builds check that against the full-scan rule.
    fn first_issuable(
        &self,
        group: u32,
        now: SimTime,
        memo: &mut WriteMemo,
        probes: &mut DispatchProbes,
    ) -> u32 {
        #[cfg(test)]
        if self.full_scan_dispatch {
            return self.first_issuable_full_scan(group, now, memo);
        }
        let mut best = NO_SLOT;
        let mut best_seq = u64::MAX;
        let mut cur = self.pending.scan_head(group);
        while cur != NO_SLOT {
            let op = self.pending.get(cur);
            probes.scan += 1;
            if self.op_issuable(op, now, memo) {
                best = cur;
                best_seq = op.seq;
                break;
            }
            cur = self.pending.next(cur);
        }
        for li in 0..self.pending.lane_count(group) {
            let head = self.pending.lane_head(group, li);
            if head == NO_SLOT {
                continue;
            }
            let op = self.pending.get(head);
            if op.seq < best_seq {
                probes.lane += 1;
                if self.op_issuable(op, now, memo) {
                    best = head;
                    best_seq = op.seq;
                }
            }
        }
        // The full scan costs O(pending) per call, so deep queues check a
        // deterministic subset: every round up to `ORACLE_DEPTH` pending
        // ops, every `1 + len / ORACLE_DEPTH`-th round beyond.
        #[cfg(debug_assertions)]
        if probes
            .rounds
            .is_multiple_of(1 + self.pending.len() as u64 / ORACLE_DEPTH)
        {
            assert_eq!(
                best,
                self.first_issuable_full_scan(group, now, memo),
                "lanes disagree with the full scan of group {group}"
            );
        }
        best
    }

    /// The pre-lane dispatch rule, as an oracle for [`Self::first_issuable`]:
    /// the min-seq op of `group` that `op_issuable` accepts, over every op
    /// in the group regardless of queue or lane.
    #[cfg(any(test, debug_assertions))]
    fn first_issuable_full_scan(&self, group: u32, now: SimTime, memo: &mut WriteMemo) -> u32 {
        let mut best = (u64::MAX, NO_SLOT);
        for slot in self.pending.group_slots(group) {
            let op = self.pending.get(slot);
            if op.seq < best.0 && self.op_issuable(op, now, memo) {
                best = (op.seq, slot);
            }
        }
        best.1
    }

    /// Issue (or consume) the pending op in `slot`. Caller guarantees
    /// issuability.
    fn issue(&mut self, slot: u32, now: SimTime) {
        let op = self.pending.remove(slot);
        if let PendKind::GcMove { from, .. } = op.kind {
            self.pending_moves
                .remove(&self.array.geometry().page_index(from));
        }
        self.obs_cur = ObsCur {
            span: op.span,
            host: Self::pend_request(&op.kind).is_some(),
            enqueued_at: op.enqueued_at,
        };
        self.ops_since_scrub += 1;
        self.serviced[class_index(op.class)] += 1;
        self.stats.wait_us[class_index(op.class)]
            .record(now.saturating_since(op.enqueued_at).as_micros_f64());
        match op.kind {
            PendKind::Transfer { addr, then } => {
                let out = self.issue_cmd(FlashCommand::TransferOut(addr), now);
                self.finish_issue(op.class, DoneWhat::Transferred(then), out);
            }
            PendKind::Erase { block, owner } => {
                let out = self.issue_cmd(FlashCommand::Erase(block), now);
                // A transient erase failure leaves the block un-reset:
                // charge the time, retry. A retiring failure falls through
                // to EraseDone, whose bad-block path swallows the block.
                if matches!(out.fault, Some(FaultEvent::EraseFailed { retired: false })) {
                    self.stats.erase_retries += 1;
                    self.requeue(&op, op.kind, out, now);
                    return;
                }
                self.finish_issue(op.class, DoneWhat::EraseDone { block, owner }, out);
            }
            PendKind::AppRead { id, lpn } => match self.ftl.peek(lpn) {
                None => self.complete_app(id, now),
                Some(ppn) => {
                    let addr = self.array.geometry().page_at(ppn);
                    let out = self.issue_cmd(FlashCommand::ReadStart(addr), now);
                    self.finish_read(&op, addr, Some(lpn), AfterXfer::App { id }, out);
                }
            },
            PendKind::MapFetchRead { tvpn } => match self.ftl.translation_location(tvpn) {
                None => {
                    // Entries live in RAM structures: resolve immediately.
                    self.obs_close_cur(now);
                    let done = DoneWhat::Transferred(AfterXfer::MapFetch { tvpn });
                    self.events.schedule(now, CtrlEvent::Done(done));
                }
                Some(ppn) => {
                    let addr = self.array.geometry().page_at(ppn);
                    let out = self.issue_cmd(FlashCommand::ReadStart(addr), now);
                    self.finish_read(&op, addr, None, AfterXfer::MapFetch { tvpn }, out);
                }
            },
            PendKind::WbRead { wb } => match self.wb_source(wb) {
                None => {
                    self.obs_close_cur(now);
                    self.enqueue_translation_write(wb, now);
                }
                Some(ppn) => {
                    let addr = self.array.geometry().page_at(ppn);
                    let out = self.issue_cmd(FlashCommand::ReadStart(addr), now);
                    self.finish_read(&op, addr, None, AfterXfer::Wb { wb }, out);
                }
            },
            PendKind::Write { lun, stream, what } => {
                let lun = match lun {
                    Some(l) => l,
                    None => self
                        .choose_write_lun(stream, now)
                        .expect("write issuable implies a usable LUN"),
                };
                let addr = self.alloc.alloc(lun, stream).expect("issuable implies alloc");
                let ppn = self.array.geometry().page_index(addr);
                let content = match what {
                    WriteWhat::App { lpn, .. } | WriteWhat::Flush { lpn, .. } => {
                        PageContent::Data(lpn)
                    }
                    WriteWhat::Gc { content, .. } => content,
                    WriteWhat::Translation { wb } => {
                        PageContent::Translation(self.wb_jobs[wb].as_ref().unwrap().tvpn)
                    }
                };
                self.reverse[ppn as usize] = Some(content);
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                let retry = PendKind::Write { lun: None, stream, what };
                if self.remap_failed_program(&op, addr, retry, out, now) {
                    return;
                }
                // Relocations inherit the source's content version; host
                // and translation writes get a fresh one.
                let seq = match what {
                    WriteWhat::Gc { from_ppn, .. } => Some(self.source_seq(from_ppn)),
                    _ => None,
                };
                self.stamp_program(addr, Self::content_tag(content), seq);
                let done = match what {
                    WriteWhat::App { id, lpn } => DoneWhat::AppWriteDone { id, lpn, ppn },
                    WriteWhat::Gc { job, from_ppn, content } => DoneWhat::GcWriteDone {
                        job,
                        from_ppn,
                        content,
                        new: addr,
                    },
                    WriteWhat::Translation { wb } => DoneWhat::WbWrite { wb, new: addr },
                    WriteWhat::Flush { lpn, version } => {
                        DoneWhat::FlushDone { lpn, version, ppn }
                    }
                };
                self.finish_issue(op.class, done, out);
            }
            PendKind::GcMove { job, from } => {
                let from_ppn = self.array.geometry().page_index(from);
                let Some(content) = self.reverse[from_ppn as usize] else {
                    // Superseded while queued: space reclaims for free.
                    self.obs_close_cur(now);
                    self.stats.gc_skipped += 1;
                    self.move_done(job, now);
                    return;
                };
                // Copy-back when permitted, supported, and a same-plane
                // destination exists.
                if self.cfg.gc.use_copyback
                    && self.array.timing().copyback
                    && self.cfg.gc.migrate_same_lun
                {
                    let lun = self.jobs[job].as_ref().unwrap().lun;
                    if let Some(to) = self.alloc.alloc_in_plane(lun, from.plane, Stream::Gc) {
                        self.reverse[self.array.geometry().page_index(to) as usize] =
                            Some(content);
                        let seq = self.source_seq(from_ppn);
                        let out = self.issue_cmd(FlashCommand::CopyBack { from, to }, now);
                        // A burned destination remaps the migration; the
                        // source page is still live.
                        if self.remap_failed_program(&op, to, op.kind, out, now) {
                            return;
                        }
                        // Copy-back reads on-chip; an uncorrectable source
                        // still surfaces through the fault event.
                        self.note_read_fault(&out, Self::content_lpn(content));
                        self.stamp_program(to, Self::content_tag(content), Some(seq));
                        let done = DoneWhat::GcWriteDone { job, from_ppn, content, new: to };
                        self.finish_issue(op.class, done, out);
                        return;
                    }
                }
                let out = self.issue_cmd(FlashCommand::ReadStart(from), now);
                let lpn = Self::content_lpn(content);
                self.finish_read(&op, from, lpn, AfterXfer::Gc { job, from_ppn }, out);
            }
            PendKind::HybridWrite { what } => {
                let lpn = what.lpn();
                let ppn = self.hybrid_mut().commit_append(lpn);
                let addr = self.array.geometry().page_at(ppn);
                self.reverse[ppn as usize] = Some(PageContent::Data(lpn));
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                if self.remap_failed_program(&op, addr, op.kind, out, now) {
                    return;
                }
                self.stamp_program(addr, OobTag::Data { lpn }, None);
                let done = match what {
                    HybridWhat::App { id, lpn } => DoneWhat::AppWriteDone { id, lpn, ppn },
                    HybridWhat::Flush { lpn, version } => {
                        DoneWhat::FlushDone { lpn, version, ppn }
                    }
                };
                self.finish_issue(op.class, done, out);
            }
            PendKind::MergeRead { mj } => {
                let lpn = self.merge_lpn(mj);
                match self.ftl.peek(lpn) {
                    None => {
                        // Trimmed since enqueue: a filler program keeps the
                        // destination's page order instead.
                        self.obs_close_cur(now);
                        self.enqueue_merge_program(mj, None, now);
                    }
                    Some(src) => {
                        let addr = self.array.geometry().page_at(src);
                        let out = self.issue_cmd(FlashCommand::ReadStart(addr), now);
                        let then = AfterXfer::Merge { mj, from_ppn: src };
                        self.finish_read(&op, addr, Some(lpn), then, out);
                    }
                }
            }
            PendKind::MergeProgram { mj, from } => {
                let cur = self.merge_cur(mj);
                let lpn = cur.lbn * self.ppb() + cur.next as u64;
                let dest = cur.dest + cur.next as u64;
                let addr = self.array.geometry().page_at(dest);
                if from.is_some() {
                    self.reverse[dest as usize] = Some(PageContent::Data(lpn));
                }
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                // A program failure here is absorbed: the fold's destination
                // order is fixed, so the page keeps its slot and the at-risk
                // data is already counted by the fault model's counters.
                match from {
                    Some(src) => {
                        let seq = self.source_seq(src);
                        self.stamp_program(addr, OobTag::Data { lpn }, Some(seq));
                    }
                    None => {
                        // Fillers carry no logical content; recovery skips
                        // them.
                        let stamp = self.fresh_stamp();
                        self.array.set_oob(
                            addr,
                            OobEntry { tag: OobTag::Filler, seq: stamp, stamp },
                        );
                    }
                }
                self.finish_issue(op.class, DoneWhat::MergeProgDone { mj, from, dest }, out);
            }
            PendKind::CkptWrite => {
                let addr = self.ckpt_dest();
                let slot = {
                    let ck = self.ckpt.as_ref().expect("ckpt write without state");
                    ck.job.as_ref().expect("ckpt write without job").record.slot
                };
                let ppn = self.array.geometry().page_index(addr);
                self.reverse[ppn as usize] = Some(PageContent::Checkpoint(slot));
                let out = self.issue_cmd(FlashCommand::Program(addr), now);
                // Program failures are absorbed: a snapshot with a burned
                // page is caught at mount (the OOB read reports it) and
                // recovery falls back to the previous slot or a full scan.
                // Checkpoint pages carry no mapping entry of their own:
                // stamped (for block probes) but never replayed.
                let stamp = self.fresh_stamp();
                self.array.set_oob(
                    addr,
                    OobEntry {
                        tag: OobTag::Checkpoint { slot },
                        seq: stamp,
                        stamp,
                    },
                );
                self.stats.checkpoint_pages += 1;
                self.finish_issue(op.class, DoneWhat::CkptWriteDone, out);
            }
        }
    }

    fn choose_write_lun(&mut self, stream: Stream, now: SimTime) -> Option<u32> {
        let g = *self.array.geometry();
        let mut free = std::mem::take(&mut self.lun_scratch);
        free.clear();
        free.extend((0..g.total_luns()).map(|l| self.can_program_on(l, stream, now)));
        let chosen = self.alloc.choose_lun(stream, |l| free[l as usize]);
        self.lun_scratch = free;
        chosen
    }

    fn finish_issue(
        &mut self,
        class: OpClass,
        done: DoneWhat,
        out: eagletree_flash::IssueOutcome,
    ) {
        self.stats.issued[class_index(class)] += 1;
        self.schedule_outcome(out, CtrlEvent::Done(done));
    }

    /// Finish issuing read `op` of `addr`, which carries `lpn`'s data, if
    /// any: ledger an uncorrectable outcome; the completion enqueues the
    /// transfer out of the register, which hands the data to `then`.
    fn finish_read(
        &mut self,
        op: &PendingOp,
        addr: PhysicalAddr,
        lpn: Option<Lpn>,
        then: AfterXfer,
        out: eagletree_flash::IssueOutcome,
    ) {
        self.note_read_fault(&out, lpn);
        let done = DoneWhat::ReadArray { addr, class: op.class, tag: op.tag, then };
        self.finish_issue(op.class, done, out);
    }

    /// Schedule `ev` when an issued command finishes, plus wake-ups at the
    /// instants its channel and LUN free up earlier.
    fn schedule_outcome(&mut self, out: eagletree_flash::IssueOutcome, ev: CtrlEvent) {
        self.events.schedule(out.done_at, ev);
        if out.channel_free_at < out.done_at {
            self.events.schedule(out.channel_free_at, CtrlEvent::Wake);
        }
        if out.lun_free_at < out.done_at {
            self.events.schedule(out.lun_free_at, CtrlEvent::Wake);
        }
    }

    /// Re-enqueue `kind` in place of `op`, whose completion an injected
    /// fault cancelled. The LUN/channel occupancy the failed command
    /// charged is still real, and the retry can only issue once those
    /// resources free: wake the scheduler then.
    fn requeue(
        &mut self,
        op: &PendingOp,
        kind: PendKind,
        out: eagletree_flash::IssueOutcome,
        now: SimTime,
    ) {
        self.enqueue(op.class, op.tag, now, kind);
        self.schedule_outcome(out, CtrlEvent::Wake);
    }

    /// The one response to a failed program status, shared by host,
    /// flush, translation, GC/WL/scrub and hybrid-log programs. The page
    /// at `addr` is burned (no OOB stamp: recovery skips it). An
    /// allocator-placed program retires the block as grown bad, since it
    /// can't be trusted for fresh allocations. A hybrid log append instead
    /// releases its append slot: the entry stays, so merges see the offset
    /// as stale and switch merges are off the table. Then `retry` replaces
    /// `op` and lands elsewhere. Returns false, doing nothing, when the
    /// program succeeded. (Merge-fold and checkpoint programs absorb
    /// failures instead: their destinations are fixed.)
    fn remap_failed_program(
        &mut self,
        op: &PendingOp,
        addr: PhysicalAddr,
        retry: PendKind,
        out: eagletree_flash::IssueOutcome,
        now: SimTime,
    ) -> bool {
        if !matches!(out.fault, Some(FaultEvent::ProgramFailed)) {
            return false;
        }
        let ppn = self.array.geometry().page_index(addr);
        self.invalidate_ppn(ppn);
        if let PendKind::HybridWrite { .. } = retry {
            self.hybrid_mut().abort_append(ppn);
        } else {
            self.alloc.retire_block(addr.block_addr());
        }
        self.stats.program_remaps += 1;
        self.requeue(op, retry, out, now);
        true
    }

    // ----- completion handling -------------------------------------------

    fn handle_done(&mut self, d: DoneWhat, now: SimTime) {
        match d {
            DoneWhat::ReadArray { addr, class, tag, then } => {
                // A translation writeback's merge read is the exception:
                // its transfer feeds the writeback program and bills to it.
                let class = match then {
                    AfterXfer::Wb { .. } => OpClass::MappingWrite,
                    _ => class,
                };
                self.enqueue(class, tag, now, PendKind::Transfer { addr, then });
            }
            DoneWhat::Transferred(AfterXfer::App { id }) => self.complete_app(id, now),
            DoneWhat::AppWriteDone { id, lpn, ppn } => {
                self.stamp_landed(ppn);
                let old = self.ftl.update(lpn, ppn);
                if let Some(old) = old {
                    debug_assert_eq!(
                        self.reverse[old as usize],
                        Some(PageContent::Data(lpn)),
                        "reverse map inconsistent at superseded page"
                    );
                    self.invalidate_ppn(old);
                }
                self.drain_ftl_writebacks(now);
                self.complete_app(id, now);
            }
            DoneWhat::Transferred(AfterXfer::Gc { job, from_ppn }) => {
                match self.reverse[from_ppn as usize] {
                    None => {
                        // Invalidated between read and write: drop the move.
                        self.stats.gc_stale += 1;
                        self.move_done(job, now);
                    }
                    Some(content) => {
                        let j = self.jobs[job].as_ref().expect("live job");
                        let lun = if self.cfg.gc.migrate_same_lun {
                            Some(j.lun)
                        } else {
                            None
                        };
                        let (_, class) = Self::relocation_classes(j.source);
                        let stream = match (j.source, content) {
                            (_, PageContent::Translation(_)) => Stream::Translation,
                            // Static WL migrates presumed-cold data.
                            (IoSource::WearLeveling, _) => Stream::Cold,
                            _ => Stream::Gc,
                        };
                        self.enqueue(
                            class,
                            None,
                            now,
                            PendKind::Write {
                                lun,
                                stream,
                                what: WriteWhat::Gc { job, from_ppn, content },
                            },
                        );
                    }
                }
            }
            DoneWhat::GcWriteDone { job, from_ppn, content, new } => {
                self.finalize_move(job, from_ppn, content, new, now);
            }
            DoneWhat::EraseDone { block, owner } => self.erase_done(block, owner, now),
            DoneWhat::Transferred(AfterXfer::MapFetch { tvpn }) => {
                let fetch = self.fetches.remove(&tvpn).expect("live fetch");
                let lpns: Vec<Lpn> = fetch
                    .waiting
                    .iter()
                    .map(|w| match w {
                        Waiter::Request(id) => self.app[id].req.lpn,
                        Waiter::Flush { lpn, .. } => *lpn,
                    })
                    .collect();
                self.ftl.fetch_complete(tvpn, &lpns);
                for w in fetch.waiting {
                    match w {
                        Waiter::Request(id) => self.start_or_park(id, now),
                        Waiter::Flush { lpn, version } => self.start_flush(lpn, version, now),
                    }
                }
                self.drain_ftl_writebacks(now);
            }
            DoneWhat::Transferred(AfterXfer::Wb { wb }) => self.enqueue_translation_write(wb, now),
            DoneWhat::WbWrite { wb, new } => {
                let job = self.wb_jobs[wb].take().expect("live wb job");
                let new_ppn = self.array.geometry().page_index(new);
                self.stamp_landed(new_ppn);
                let old = self.ftl.translation_written(job.tvpn, new_ppn);
                if let Some(old) = old {
                    if self.reverse[old as usize] == Some(PageContent::Translation(job.tvpn)) {
                        self.invalidate_ppn(old);
                    }
                }
            }
            DoneWhat::FlushDone { lpn, version, ppn } => {
                self.stamp_landed(ppn);
                self.ftl.unpin(lpn);
                self.flushes_inflight -= 1;
                let current = self
                    .buffer
                    .as_mut()
                    .expect("flush without buffer")
                    .flush_done(lpn, version);
                if current {
                    let old = self.ftl.update(lpn, ppn);
                    if let Some(old) = old {
                        self.invalidate_ppn(old);
                    }
                    self.drain_ftl_writebacks(now);
                } else {
                    // Re-dirtied or trimmed mid-flight: discard the copy.
                    if self.is_hybrid() {
                        self.hybrid_mut().abort_append(ppn);
                    }
                    self.invalidate_ppn(ppn);
                }
                self.maybe_flush(now);
            }
            DoneWhat::Transferred(AfterXfer::Merge { mj, from_ppn }) => {
                self.enqueue_merge_program(mj, Some(from_ppn), now);
            }
            DoneWhat::MergeProgDone { mj, from, dest } => {
                self.stamp_landed(dest);
                let source = self.merge_jobs[mj].as_ref().unwrap().source;
                let lpn = self.merge_lpn(mj);
                match from {
                    Some(f) if self.ftl.peek(lpn) == Some(f) => {
                        // Still current: commit the move.
                        self.hybrid_mut().merge_committed(lpn, dest);
                        self.invalidate_ppn(f);
                        match source {
                            IoSource::WearLeveling => self.stats.wl_moves += 1,
                            _ => self.stats.merge_moves += 1,
                        }
                    }
                    Some(_) => {
                        // Superseded mid-copy: the fresh page is garbage,
                        // but it kept the destination's program order.
                        self.stats.merge_stale += 1;
                        self.invalidate_ppn(dest);
                    }
                    None => {
                        self.stats.merge_fillers += 1;
                        self.invalidate_ppn(dest);
                    }
                }
                self.merge_jobs[mj].as_mut().unwrap().cur.as_mut().unwrap().next += 1;
                self.advance_merge(mj, now);
            }
            DoneWhat::CkptWriteDone => {
                let more = {
                    let ck = self.ckpt.as_mut().expect("ckpt done without state");
                    let job = ck.job.as_mut().expect("ckpt done without job");
                    job.next_page += 1;
                    job.next_page < ck.pages_per_snapshot
                };
                if more {
                    self.enqueue(OpClass::MappingWrite, None, now, PendKind::CkptWrite);
                    return;
                }
                // The snapshot's last page landed: commit, then retire the
                // previous committed slot — old-before-new never holds a
                // window where neither checkpoint is whole.
                let old = {
                    let ck = self.ckpt.as_mut().expect("ckpt done without state");
                    let job = ck.job.take().expect("ckpt done without job");
                    ck.next_slot ^= 1;
                    ck.committed.replace(job.record)
                };
                self.stats.checkpoints_committed += 1;
                if let Some(old) = old {
                    self.retire_checkpoint_slot(old, now);
                }
            }
        }
    }

    /// An erase finished: return the block to the free pool (or mask it,
    /// its endurance exhausted), then advance its owner. Reclaim and merge
    /// erases count toward the static wear-leveling trigger; a reserved
    /// checkpoint block stays reserved, replaced from the pool if it wore
    /// out (checkpointing pauses if none is available).
    fn erase_done(&mut self, block: BlockAddr, owner: EraseOwner, now: SimTime) {
        let info = self.array.block_info(block);
        if info.bad {
            self.stats.bad_blocks_retired += 1;
        } else if !matches!(owner, EraseOwner::Checkpoint) {
            self.alloc.block_freed(block, info.erase_count);
        }
        let source = match owner {
            EraseOwner::Reclaim { job } => {
                self.victims.remove(&block);
                let j = self.jobs[job].take().expect("live job");
                self.reclaim_active[j.lun as usize] -= 1;
                j.source
            }
            EraseOwner::Merge { source, job } => {
                if let Some(mj) = job {
                    // The victim's erase completes the merge.
                    self.merge_jobs[mj] = None;
                    self.merge_active = false;
                }
                source
            }
            EraseOwner::Checkpoint => {
                if info.bad {
                    let replacement = self.alloc.take_block();
                    if let Some(ck) = &mut self.ckpt {
                        for slot in &mut ck.slots {
                            if let Some(pos) = slot.iter().position(|b| *b == block) {
                                slot.swap_remove(pos);
                                if let Some((b, _)) = replacement {
                                    slot.push(b);
                                }
                                break;
                            }
                        }
                    }
                }
                return;
            }
        };
        match source {
            IoSource::WearLeveling => self.stats.wl_erases += 1,
            IoSource::Scrub => {
                self.stats.scrub_erases += 1;
                self.scrub_inflight -= 1;
            }
            IoSource::Merge => self.stats.merge_erases += 1,
            _ => self.stats.gc_erases += 1,
        }
        self.erases_since_wl += 1;
        if self.cfg.wl.static_enabled && self.erases_since_wl >= self.cfg.wl.check_every_erases
        {
            self.erases_since_wl = 0;
            self.start_refresh(IoSource::WearLeveling, now);
        }
    }

    /// A migration landed at `new`; commit or discard it, then advance the
    /// job toward its erase.
    fn finalize_move(
        &mut self,
        job: usize,
        from_ppn: Ppn,
        content: PageContent,
        new: PhysicalAddr,
        now: SimTime,
    ) {
        let new_ppn = self.array.geometry().page_index(new);
        self.stamp_landed(new_ppn);
        let still_current = match content {
            PageContent::Data(lpn) => self.ftl.peek(lpn) == Some(from_ppn),
            PageContent::Translation(tvpn) => {
                self.ftl.translation_location(tvpn) == Some(from_ppn)
            }
            PageContent::Checkpoint(_) => {
                unreachable!("checkpoint pages are never GC-migrated")
            }
        };
        if still_current {
            match content {
                PageContent::Data(lpn) => self.ftl.relocate(lpn, new_ppn),
                PageContent::Translation(tvpn) => {
                    self.ftl.translation_written(tvpn, new_ppn);
                }
                PageContent::Checkpoint(_) => unreachable!("checked above"),
            }
            self.invalidate_ppn(from_ppn);
            let j = self.jobs[job].as_ref().expect("live job");
            match j.source {
                IoSource::WearLeveling => self.stats.wl_moves += 1,
                _ => self.stats.gc_moves += 1,
            }
        } else {
            // A newer write superseded the page mid-migration; the fresh
            // copy is garbage on arrival.
            self.stats.gc_stale += 1;
            self.invalidate_ppn(new_ppn);
        }
        self.move_done(job, now);
    }

    fn move_done(&mut self, job: usize, now: SimTime) {
        let ready = {
            let j = self.jobs[job].as_mut().expect("live job");
            j.move_done() && !j.erase_enqueued
        };
        if ready {
            let block = self.jobs[job].as_ref().unwrap().victim;
            self.enqueue_erase(block, EraseOwner::Reclaim { job }, now);
        }
    }

    // ----- power failure & remount ----------------------------------------

    /// Pull the plug at virtual instant `at`. Everything volatile dies with
    /// the controller — pending operations, the event agenda, the RAM
    /// mapping state, unacknowledged requests — and the flash array loses
    /// exactly the operations still in flight (partially-programmed pages
    /// become torn, interrupted erases leave their block unusable; see
    /// [`FlashArray::power_cut`]). What survives is the returned
    /// [`CrashImage`]: the dead medium, the last *committed* mapping
    /// checkpoint, and the battery-backed write buffer's contents.
    ///
    /// Pass the image to [`Controller::remount`] to rebuild a controller.
    pub fn power_cut(mut self, at: SimTime) -> CrashImage {
        let cut = self.array.power_cut(at);
        CrashImage {
            buffered: self
                .buffer
                .as_ref()
                .map(|b| b.resident_lpns())
                .unwrap_or_default(),
            checkpoint: self.ckpt.and_then(|c| c.committed),
            flash: self.array,
            cut,
        }
    }

    /// Mount a controller on a crashed medium, rebuilding the mapping per
    /// `mode` (full OOB scan, or checkpoint replay when the image holds a
    /// committed checkpoint). See [`crate::recovery`] for the algorithm
    /// and guarantees. The returned [`RecoveryReport`] carries the modeled
    /// mount time and scan counts.
    ///
    /// `cfg` need not match the pre-crash configuration: OOB records are
    /// scheme-independent, so a device written under one mapping scheme
    /// can remount under another (the new scheme's structures are rebuilt
    /// around the recovered map).
    pub fn remount(
        image: CrashImage,
        cfg: ControllerConfig,
        mode: RecoveryMode,
    ) -> Result<(Self, RecoveryReport), String> {
        let CrashImage {
            mut flash,
            checkpoint,
            buffered,
            cut,
        } = image;
        let geometry = *flash.geometry();
        cfg.validate()?;
        // The crashed medium carries its fault model (and its accumulated
        // disturb/retention/grown-bad state) across the remount; a config
        // that newly enables faults installs a fresh model instead.
        if let Some(fc) = cfg.fault {
            if flash.fault().is_none() {
                flash.install_fault_model(fc);
            }
        }
        let logical_pages =
            ((geometry.total_pages() as f64) * cfg.logical_capacity).floor() as u64;
        if logical_pages == 0 {
            return Err("logical capacity rounds to zero pages".into());
        }
        let entries_per_tp = (geometry.page_size as u64 / 8).max(1);
        let tvpns = logical_pages.div_ceil(entries_per_tp).max(1);
        let keep_translation = matches!(cfg.mapping, MappingKind::Dftl { .. });
        let is_hybrid = matches!(cfg.mapping, MappingKind::Hybrid { .. });
        let record = match mode {
            RecoveryMode::Checkpoint => checkpoint.as_ref(),
            RecoveryMode::FullScan => None,
        };
        let rec = recovery::recover_medium(
            &mut flash,
            record,
            logical_pages,
            tvpns,
            keep_translation,
            is_hybrid,
            cut.at,
        );
        let data_entries = rec.data_map.iter().filter(|e| e.is_some()).count() as u64;
        let translation_entries =
            rec.trans_map.iter().filter(|e| e.is_some()).count() as u64;
        // Carry forward the journaled trim barriers that still guard an
        // unmapped page: until the stale copies are erased, the next
        // checkpoint written on this mount must keep filtering them.
        let seeded_barriers: BTreeMap<Lpn, u64> = if rec.used_checkpoint {
            record
                .map(|r| {
                    r.trims
                        .iter()
                        .copied()
                        .filter(|&(lpn, _)| {
                            lpn < logical_pages && rec.data_map[lpn as usize].is_none()
                        })
                        .collect()
                })
                .unwrap_or_default()
        } else {
            BTreeMap::new()
        };

        let ftl = match cfg.mapping {
            MappingKind::PageMap => FtlKind::PageMap(PageMap::restore(rec.data_map)),
            MappingKind::Dftl { cmt_entries } => FtlKind::Dftl(Box::new(Dftl::restore(
                logical_pages,
                cmt_entries,
                entries_per_tp,
                rec.data_map,
                rec.trans_map,
            ))),
            MappingKind::Hybrid { log_blocks, merge } => {
                let layout = recovery::classify_hybrid(&flash, &rec.reverse, logical_pages);
                FtlKind::Hybrid(Box::new(Hybrid::restore(
                    logical_pages,
                    geometry.pages_per_block,
                    log_blocks,
                    merge,
                    rec.data_map,
                    layout.dir,
                    layout.logs,
                )))
            }
        };

        let mut mem = MemoryManager::new(cfg.ram_bytes, cfg.battery_ram_bytes);
        mem.reserve(MemoryKind::Ram, "mapping", ftl.ram_bytes())?;
        let mut buffer = if cfg.write_buffer_pages > 0 {
            mem.reserve(
                MemoryKind::BatteryBackedRam,
                "write-buffer",
                cfg.write_buffer_pages * geometry.page_size as u64,
            )?;
            Some(WriteBuffer::new(cfg.write_buffer_pages as usize))
        } else {
            None
        };
        // The battery held: re-install every buffered (acknowledged but
        // unflushed) write.
        if let Some(b) = &mut buffer {
            for lpn in buffered {
                if lpn < logical_pages {
                    b.write(lpn);
                }
            }
        }

        // Free pool: exactly the blocks the medium reports erased, with
        // their surviving wear counts.
        let mut alloc = Allocator::empty(geometry, cfg.write_alloc, cfg.wl.dynamic_enabled);
        for block in geometry.blocks() {
            let info = flash.block_info(block);
            if info.write_ptr == 0 && !info.bad && !flash.block_needs_erase(block) {
                alloc.block_freed(block, info.erase_count);
            }
        }
        // Size the checkpoint exactly as a fresh mount would: only DFTL
        // persists translation pages worth snapshotting.
        let ckpt_tvpns = if keep_translation { tvpns } else { 0 };
        let mut ckpt = Self::checkpoint_state(
            &cfg,
            &geometry,
            logical_pages,
            ckpt_tvpns,
            &mut mem,
            &mut alloc,
        )?;
        let stamp_next = rec.max_stamp + 1;
        if let Some(ck) = &mut ckpt {
            // A fresh interval starts at mount; the first new checkpoint
            // comes after `interval` further programs.
            ck.last_stamp = stamp_next;
        }
        let obs = cfg
            .obs
            .spans_enabled()
            .then(|| Box::new(Obs::new(cfg.obs.span_capacity)));
        let report = RecoveryReport {
            mode,
            used_checkpoint: rec.used_checkpoint,
            oob_scanned: rec.oob_scanned,
            oob_uncorrectable: rec.oob_uncorrectable,
            blocks_probed: rec.blocks_probed,
            torn_pages: cut.torn_pages,
            interrupted_erases: cut.interrupted_erases,
            blocks_erased: rec.blocks_erased,
            data_entries,
            translation_entries,
            mount_time: rec.mount_time,
        };
        let mut c = Controller {
            reverse: rec.reverse,
            reclaim_active: vec![0; geometry.total_luns() as usize],
            rng: SimRng::new(cfg.seed),
            detector: MultiBloomDetector::default_detector(),
            array: flash,
            ftl,
            alloc,
            cfg,
            mem,
            events: EventQueue::new(),
            pending: PendingSet::new(),
            pending_moves: BTreeMap::new(),
            probes: DispatchProbes::default(),
            #[cfg(test)]
            full_scan_dispatch: false,
            sched_cand: Vec::new(),
            sched_keys: Vec::new(),
            write_memo: Vec::new(),
            hybrid_scratch: Vec::new(),
            lun_scratch: Vec::new(),
            op_seq: 0,
            app: BTreeMap::new(),
            jobs: Vec::new(),
            merge_jobs: Vec::new(),
            merge_active: false,
            fetches: BTreeMap::new(),
            wb_jobs: Vec::new(),
            victims: BTreeSet::new(),
            buffer,
            flushes_inflight: 0,
            obs,
            obs_cur: ObsCur::default(),
            logical_pages,
            serviced: class_table(0),
            stats: CtrlStats::new(),
            erases_since_wl: 0,
            completions: Vec::new(),
            stamp_next,
            inflight_stamps: BTreeSet::new(),
            stamp_by_ppn: BTreeMap::new(),
            trim_barriers: if ckpt.is_some() {
                seeded_barriers
            } else {
                BTreeMap::new()
            },
            ckpt,
            lost_lpns: BTreeSet::new(),
            ops_since_scrub: 0,
            scrub_inflight: 0,
        };
        // Kick background flushes for a re-installed buffer already at
        // capacity; they issue once the simulation starts advancing.
        c.maybe_flush(SimTime::ZERO);
        Ok((c, report))
    }

    // ----- test support ----------------------------------------------------

    /// Verify cross-structure invariants. Intended for tests at quiescent
    /// points (no in-flight operations).
    pub fn check_invariants(&self) {
        let g = *self.array.geometry();
        // Every valid physical page has reverse content and vice versa.
        for ppn in 0..g.total_pages() {
            let addr = g.page_at(ppn);
            let state = self.array.page_state(addr);
            match self.reverse[ppn as usize] {
                Some(PageContent::Data(lpn)) => {
                    assert_eq!(state, PageState::Valid, "reverse points at non-valid page");
                    assert_eq!(
                        self.ftl.peek(lpn),
                        Some(ppn),
                        "forward map disagrees with reverse map for lpn {lpn}"
                    );
                }
                Some(PageContent::Translation(tvpn)) => {
                    assert_eq!(state, PageState::Valid);
                    assert_eq!(
                        self.ftl.translation_location(tvpn),
                        Some(ppn),
                        "GTD disagrees with reverse map for tvpn {tvpn}"
                    );
                }
                Some(PageContent::Checkpoint(_)) => {
                    assert_eq!(state, PageState::Valid);
                    assert!(
                        self.is_ckpt_reserved(addr.block_addr()),
                        "checkpoint page outside the reserved slots"
                    );
                }
                None => {
                    assert_ne!(state, PageState::Valid, "valid page without reverse content");
                }
            }
        }
        // Forward map targets are valid pages.
        for lpn in 0..self.logical_pages {
            if let Some(ppn) = self.ftl.peek(lpn) {
                assert_eq!(
                    self.reverse[ppn as usize],
                    Some(PageContent::Data(lpn)),
                    "lpn {lpn} maps to page not owned by it"
                );
            }
        }
        // Hybrid discipline: a data block's valid pages sit at their
        // logical offsets (block mapping would be meaningless otherwise).
        if let FtlKind::Hybrid(h) = &self.ftl {
            let ppb = g.pages_per_block as u64;
            for lbn in 0..h.lbn_count() {
                let Some(base) = h.data_block(lbn) else { continue };
                for o in 0..ppb {
                    let addr = g.page_at(base + o);
                    if self.array.page_state(addr) == PageState::Valid {
                        let lpn = lbn * ppb + o;
                        assert_eq!(
                            self.reverse[(base + o) as usize],
                            Some(PageContent::Data(lpn)),
                            "data block of lbn {lbn} holds a misaligned page at offset {o}"
                        );
                    }
                }
            }
        }
        // Allocator free-block accounting matches the array.
        for lun in 0..g.total_luns() {
            let channel = lun / g.luns_per_channel;
            let l = lun % g.luns_per_channel;
            let free_in_alloc = self.alloc.free_blocks(lun);
            let empty_blocks = (0..g.planes_per_lun)
                .flat_map(|p| (0..g.blocks_per_plane).map(move |b| (p, b)))
                .filter(|&(p, b)| {
                    let info = self.array.block_info(BlockAddr {
                        channel,
                        lun: l,
                        plane: p,
                        block: b,
                    });
                    info.write_ptr == 0
                })
                .count();
            assert!(
                free_in_alloc <= empty_blocks,
                "allocator believes more blocks free than are empty on lun {lun}"
            );
        }
    }
}

#[cfg(test)]
mod tests;
