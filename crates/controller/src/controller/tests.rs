//! Dispatch tests that need the controller's private state: resource
//! lanes against the full-scan rule, and the superseded-move path.

use super::*;
use crate::types::{IoTags, RequestKind};

fn write(c: &mut Controller, id: RequestId, lpn: Lpn, now: SimTime) {
    c.submit(
        SsdRequest {
            id,
            kind: RequestKind::Write,
            lpn,
            tags: IoTags::none(),
        },
        now,
    );
}

/// The logical page held by the source of some pending GC move that is
/// still waiting on its resource lane while its LUN is busy at `now`.
fn blocked_move_lpn(c: &Controller, now: SimTime) -> Option<Lpn> {
    let g = c.array.geometry();
    c.pending.iter().find_map(|op| match op.kind {
        PendKind::GcMove { from, .. } if c.array.lun_free_at(from.channel, from.lun) > now => {
            match c.reverse[g.page_index(from) as usize] {
                Some(PageContent::Data(lpn)) => Some(lpn),
                _ => None,
            }
        }
        _ => None,
    })
}

/// Laned GC moves (not yet superseded) whose source LUN is busy at `now`.
fn moves_behind_busy_luns(c: &Controller, now: SimTime) -> Vec<Ppn> {
    let g = c.array.geometry();
    c.pending_moves
        .keys()
        .copied()
        .filter(|&ppn| {
            let a = g.page_at(ppn);
            c.array.lun_free_at(a.channel, a.lun) > now
        })
        .collect()
}

struct Run {
    done: Vec<Completion>,
    gc_skipped: u64,
    /// Moves superseded while pending behind a busy LUN.
    superseded_busy: usize,
}

/// Fill a tiny device, then overwrite it at queue depth 32; whenever a GC
/// move waits behind a busy LUN, the next host write overwrites its
/// source page.
fn overwrite_pending_moves(full_scan: bool) -> Run {
    let mut c = Controller::new(
        Geometry::tiny(),
        TimingSpec::slc(),
        ControllerConfig::default(),
    )
    .unwrap();
    c.full_scan_dispatch = full_scan;
    let logical = c.logical_pages();
    let mut rng = SimRng::new(11);
    let mut now = SimTime::ZERO;
    let mut done = Vec::new();
    let mut superseded_busy = 0;
    for id in 0..logical * 4 {
        let lpn = if id < logical {
            id
        } else {
            blocked_move_lpn(&c, now).unwrap_or_else(|| rng.gen_range(logical))
        };
        write(&mut c, id, lpn, now);
        while id + 1 - done.len() as u64 >= 32 {
            now = c.next_event_time().expect("writes outstanding");
            let waiting = moves_behind_busy_luns(&c, now);
            done.extend(c.advance(now));
            superseded_busy += waiting
                .iter()
                .filter(|&&ppn| c.reverse[ppn as usize].is_none())
                .count();
        }
    }
    while let Some(t) = c.next_event_time() {
        now = t;
        done.extend(c.advance(now));
    }
    c.check_invariants();
    assert_eq!(done.len() as u64, logical * 4, "every write completes");
    Run {
        done,
        gc_skipped: c.stats.gc_skipped,
        superseded_busy,
    }
}

#[test]
fn superseded_pending_moves_skip_and_match_the_full_scan() {
    let lanes = overwrite_pending_moves(false);
    assert!(
        lanes.superseded_busy > 0,
        "no host write superseded a move waiting behind a busy LUN"
    );
    assert!(lanes.gc_skipped > 0, "superseded moves must be skipped");
    let oracle = overwrite_pending_moves(true);
    assert_eq!(lanes.gc_skipped, oracle.gc_skipped);
    assert_eq!(lanes.done, oracle.done, "lanes reorder completions");
}

#[test]
fn superseded_move_leaves_its_lane_for_the_scan_queue() {
    let mut c = Controller::new(
        Geometry::tiny(),
        TimingSpec::slc(),
        ControllerConfig::default(),
    )
    .unwrap();
    let logical = c.logical_pages();
    let mut now = SimTime::ZERO;
    let mut rng = SimRng::new(3);
    let mut id = 0;
    // Overwrite until a GC move waits in a resource lane.
    let (slot, from) = loop {
        let lpn = if id < logical {
            id
        } else {
            rng.gen_range(logical)
        };
        write(&mut c, id, lpn, now);
        id += 1;
        if let Some(t) = c.next_event_time() {
            now = t;
            c.advance(now);
        }
        if let Some((&from, &slot)) = c.pending_moves.iter().next() {
            break (slot, from);
        }
    };
    let len = c.pending.len();
    let seq = c.pending.get(slot).seq;
    c.invalidate_ppn(from);
    assert!(!c.pending_moves.contains_key(&from), "index entry dropped");
    assert_eq!(c.pending.len(), len, "re-threading is not a removal");
    assert_eq!(c.pending.get(slot).seq, seq, "slot id is stable");
    // The move is now probed on the scan queue, which stays in seq order.
    let group = (0..c.pending.group_count())
        .find(|&g| c.pending.group_slots(g).any(|s| s == slot))
        .expect("move still pending");
    let mut scan = Vec::new();
    let mut cur = c.pending.scan_head(group);
    while cur != NO_SLOT {
        scan.push((c.pending.get(cur).seq, cur));
        cur = c.pending.next(cur);
    }
    assert!(
        scan.iter().any(|&(_, s)| s == slot),
        "move is on the scan queue"
    );
    assert!(
        scan.windows(2).all(|w| w[0].0 < w[1].0),
        "scan queue in seq order"
    );
}

/// The pending slab and the agenda hold ops and completions by value, so
/// every payload byte is paid per queued op and per scheduled event: a
/// pending transfer carries an `AfterXfer`, not a whole `DoneWhat`.
#[test]
fn op_payloads_stay_small() {
    assert!(std::mem::size_of::<PendingOp>() <= 88);
    assert!(std::mem::size_of::<CtrlEvent>() <= 56);
}
