//! Microbenchmarks of the simulator's hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eagletree_controller::{Controller, ControllerConfig, IoTags, RequestKind, SsdRequest};
use eagletree_core::{EventQueue, SimDuration, SimRng, SimTime, Zipf};
use eagletree_flash::{FlashArray, FlashCommand, Geometry, PhysicalAddr, TimingSpec};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_1k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_nanos((i * 7919) % 4096), i);
            }
            let mut acc = 0u64;
            while let Some(e) = q.pop() {
                acc = acc.wrapping_add(e.payload);
            }
            black_box(acc)
        })
    });
}

/// The event queue at simulation scale: 100k+ pending events in the
/// classic hold model (every pop schedules a replacement inside the
/// horizon), O(log n) per operation on the binary heap.
fn bench_queue_hold_100k(c: &mut Criterion) {
    const PENDING: u64 = 100_000;
    const HORIZON: u64 = 1 << 24;
    c.bench_function("queue_hold_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let mut rng = SimRng::new(0xCA1E);
            for i in 0..PENDING {
                q.schedule(SimTime::from_nanos(rng.gen_range(HORIZON)), i);
            }
            let mut acc = 0u64;
            for i in 0..2 * PENDING {
                let e = q.pop().expect("hold model keeps the queue full");
                acc = acc.wrapping_add(e.payload);
                q.schedule(e.time + SimDuration::from_nanos(1 + rng.gen_range(HORIZON)), i);
            }
            black_box(acc)
        })
    });
}

fn bench_zipf(c: &mut Criterion) {
    let zipf = Zipf::new(100_000, 0.99);
    let mut rng = SimRng::new(42);
    c.bench_function("zipf_sample", |b| b.iter(|| black_box(zipf.sample(&mut rng))));
}

fn bench_flash_issue(c: &mut Criterion) {
    c.bench_function("flash_program_page_cycle", |b| {
        b.iter(|| {
            let mut a = FlashArray::new(Geometry::tiny(), TimingSpec::slc());
            let mut now = SimTime::ZERO;
            for p in 0..16 {
                let addr = PhysicalAddr {
                    channel: 0,
                    lun: 0,
                    plane: 0,
                    block: 0,
                    page: p,
                };
                let out = a.issue(FlashCommand::Program(addr), now).unwrap();
                now = out.lun_free_at;
            }
            black_box(now)
        })
    });
}

fn bench_full_sim(c: &mut Criterion) {
    c.bench_function("controller_1k_random_writes", |b| {
        b.iter(|| {
            let mut ctrl = Controller::new(
                Geometry::tiny(),
                TimingSpec::slc(),
                ControllerConfig::default(),
            )
            .unwrap();
            let logical = ctrl.logical_pages();
            let mut rng = SimRng::new(7);
            let mut now = SimTime::ZERO;
            for id in 0..1000u64 {
                ctrl.submit(
                    SsdRequest {
                        id,
                        kind: RequestKind::Write,
                        lpn: rng.gen_range(logical),
                        tags: IoTags::none(),
                    },
                    now,
                );
                if id % 16 == 15 {
                    while let Some(t) = ctrl.next_event_time() {
                        now = t;
                        ctrl.advance(t);
                    }
                }
            }
            while let Some(t) = ctrl.next_event_time() {
                now = t;
                ctrl.advance(t);
            }
            black_box(now)
        })
    });
}

/// Dispatch cost vs queue depth: submit random writes in windows of `qd`
/// and drain. Pre-ready-queues this scaled quadratically in `qd`; now the
/// per-op cost must be flat.
fn bench_dispatch_qd(c: &mut Criterion) {
    for qd in [1u64, 64, 512] {
        c.bench_function(&format!("dispatch_random_writes_qd{qd}"), |b| {
            b.iter(|| {
                let mut ctrl = Controller::new(
                    Geometry::demo(),
                    TimingSpec::slc(),
                    ControllerConfig::default(),
                )
                .unwrap();
                let logical = ctrl.logical_pages();
                let mut rng = SimRng::new(0xD15B);
                let mut now = SimTime::ZERO;
                for id in 0..2048u64 {
                    ctrl.submit(
                        SsdRequest {
                            id,
                            kind: RequestKind::Write,
                            lpn: rng.gen_range(logical),
                            tags: IoTags::none(),
                        },
                        now,
                    );
                    if id % qd == qd - 1 {
                        while let Some(t) = ctrl.next_event_time() {
                            now = t;
                            ctrl.advance(t);
                        }
                    }
                }
                while let Some(t) = ctrl.next_event_time() {
                    now = t;
                    ctrl.advance(t);
                }
                black_box(now)
            })
        });
    }
}

/// Dispatch under GC at queue depth 512: a 2×2 device filled
/// sequentially, then overwritten at random with 512 writes outstanding,
/// so GC moves and erases pile up behind busy LUNs. They wait in per-LUN
/// resource lanes; when they sat on the scan queue instead, every
/// scheduling round walked all of them.
fn bench_dispatch_gc_overwrite(c: &mut Criterion) {
    c.bench_function("dispatch_gc_overwrite_qd512", |b| {
        b.iter(|| {
            let geometry = Geometry {
                channels: 2,
                luns_per_channel: 2,
                planes_per_lun: 1,
                blocks_per_plane: 64,
                pages_per_block: 32,
                page_size: 4096,
            };
            let mut ctrl =
                Controller::new(geometry, TimingSpec::slc(), ControllerConfig::default()).unwrap();
            let logical = ctrl.logical_pages();
            let mut rng = SimRng::new(0x6C58);
            let mut now = SimTime::ZERO;
            let mut done = 0u64;
            for id in 0..logical * 2 {
                let lpn = if id < logical {
                    id
                } else {
                    rng.gen_range(logical)
                };
                ctrl.submit(
                    SsdRequest {
                        id,
                        kind: RequestKind::Write,
                        lpn,
                        tags: IoTags::none(),
                    },
                    now,
                );
                while id + 1 - done >= 512 {
                    now = ctrl.next_event_time().expect("writes outstanding");
                    done += ctrl.advance(now).len() as u64;
                }
            }
            while let Some(t) = ctrl.next_event_time() {
                ctrl.advance(t);
            }
            black_box(ctrl.stats().gc_moves)
        })
    });
}

/// GC-trigger-heavy steady state: fill the device, then overwrite so every
/// few writes force victim selection. Exercises the incremental victim
/// index rather than the dispatch loop (qd stays modest).
fn bench_gc_steady_state(c: &mut Criterion) {
    c.bench_function("gc_steady_state_overwrite", |b| {
        b.iter(|| {
            let mut ctrl = Controller::new(
                Geometry::tiny(),
                TimingSpec::slc(),
                ControllerConfig::default(),
            )
            .unwrap();
            let logical = ctrl.logical_pages();
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            let drain = |ctrl: &mut Controller, now: &mut SimTime| {
                while let Some(t) = ctrl.next_event_time() {
                    *now = t;
                    ctrl.advance(t);
                }
            };
            // Fill sequentially, then overwrite 2x the logical space.
            for lpn in 0..logical {
                ctrl.submit(
                    SsdRequest {
                        id,
                        kind: RequestKind::Write,
                        lpn,
                        tags: IoTags::none(),
                    },
                    now,
                );
                id += 1;
                if id.is_multiple_of(32) {
                    drain(&mut ctrl, &mut now);
                }
            }
            drain(&mut ctrl, &mut now);
            let mut rng = SimRng::new(0x6C57);
            for _ in 0..logical * 2 {
                ctrl.submit(
                    SsdRequest {
                        id,
                        kind: RequestKind::Write,
                        lpn: rng.gen_range(logical),
                        tags: IoTags::none(),
                    },
                    now,
                );
                id += 1;
                if id.is_multiple_of(32) {
                    drain(&mut ctrl, &mut now);
                }
            }
            drain(&mut ctrl, &mut now);
            black_box(ctrl.stats().gc_erases)
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_queue_hold_100k,
    bench_zipf,
    bench_flash_issue,
    bench_full_sim,
    bench_dispatch_qd,
    bench_dispatch_gc_overwrite,
    bench_gc_steady_state
);
criterion_main!(benches);
