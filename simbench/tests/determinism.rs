//! The benchmark's own determinism tests: the workload seed alone decides
//! the simulated outputs, and tracing does not change them.

use std::process::Command;

use eagletree_simbench::sim;
use eagletree_simbench::workload::{run_episode, WorkloadId, DEFAULT_SEED};

/// Measured-phase sizes small enough for a quick test. The benchmark
/// itself runs `WorkloadId::default_size`.
fn small(w: WorkloadId) -> u64 {
    match w {
        WorkloadId::GcOverwriteQd512 => 4_000,
        WorkloadId::TenantsWfqObs => 500,
        WorkloadId::ReplayDftlAged => 4_000,
    }
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in WorkloadId::ALL {
        let a = run_episode(w, 5, small(w), false);
        let b = run_episode(w, 5, small(w), false);
        let c = run_episode(w, 6, small(w), false);
        assert!(
            a.sim.moved(&b.sim).is_empty(),
            "{}: {:?}",
            w.name(),
            a.sim.moved(&b.sim)
        );
        assert_eq!(a.sim.digest(), b.sim.digest(), "{}", w.name());
        assert_ne!(
            a.sim.digest(),
            c.sim.digest(),
            "{}: seed had no effect",
            w.name()
        );
        assert!(a.sim.get("ios_attempted") > 0.0, "{}", w.name());
        assert!(a.invariants.is_ok(), "{}: {:?}", w.name(), a.invariants);
    }
}

#[test]
fn tracing_leaves_the_simulation_unchanged() {
    for w in WorkloadId::ALL {
        let plain = run_episode(w, 9, small(w), false);
        let traced = run_episode(w, 9, small(w), true);
        assert!(plain.probes.is_none());
        let probes = traced.probes.expect("traced episode has probes");
        assert!(probes.callback_ns > 0, "{}", w.name());
        assert_eq!(
            probes.record_calls > 0,
            w == WorkloadId::ReplayDftlAged,
            "{}: only the replay reads a trace",
            w.name()
        );
        assert!(
            traced.sim.moved(&plain.sim).is_empty(),
            "{}: {:?}",
            w.name(),
            traced.sim.moved(&plain.sim)
        );
    }
}

#[test]
fn default_seed_reproduces_the_recorded_reference() {
    for w in WorkloadId::ALL {
        let ep = run_episode(w, DEFAULT_SEED, w.default_size(), false);
        let reference = sim::reference(w.name()).expect("reference.txt covers every workload");
        let moved = ep.sim.moved(&reference);
        assert!(moved.is_empty(), "{}: {moved:?}", w.name());
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "gc_overwrite_qd512", "--trace", "2"],
        &["--seed", "x"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_eagletree-simbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
