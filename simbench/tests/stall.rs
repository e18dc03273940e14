//! The known replay stall, pinned. With the fault model's default
//! program-failure rates, the `replay_dftl_aged` trace stops completing
//! after about 23,000-28,000 IOs and `Os::run` returns without an error.
//! The benchmark workload runs with program failures off so that no IO
//! fails; this test keeps the stall in view. When the fix lands this test
//! fails: turn it into a completion check and restore program failures in
//! `replay_dftl_aged` (see README.md, "Known defect").

use eagletree_simbench::workload::{run_episode, run_episode_on, stall_reproducer, WorkloadId};

const RECORDS: u64 = 40_000;

#[test]
fn program_failures_stall_the_replay() {
    let w = WorkloadId::ReplayDftlAged;
    let stalled = run_episode_on(stall_reproducer(), w, 1, RECORDS, false);
    assert!(stalled.sim.get("fault_program_fails") > 0.0);
    let completed = stalled.sim.get("ios_completed");
    assert!(
        completed < stalled.sim.get("ios_attempted"),
        "the replay completed every IO: the stall is fixed"
    );
    assert_eq!(stalled.sim.get("quiescent_at_end"), 0.0);

    let benchmarked = run_episode(w, 1, RECORDS, false);
    assert_eq!(benchmarked.sim.get("fault_program_fails"), 0.0);
    assert_eq!(
        benchmarked.sim.get("ios_completed"),
        benchmarked.sim.get("ios_attempted")
    );
}
