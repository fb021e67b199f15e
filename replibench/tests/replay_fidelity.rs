//! Replay fidelity: the traced replay must make exactly the layer calls
//! that the simulated run's report implies for the same seed.
//!
//! The default tests shorten the windows and cap the replica count so a
//! debug build stays quick; the ignored test replays the full workloads
//! (`cargo test --release -- --ignored`). Every traced benchmark run
//! makes the same comparison on its own cells and counts a mismatch as
//! a failed cell.

use std::collections::BTreeMap;

use replibench::replay::{
    replay_cell, CellPlan, APPLY, CERTIFY, COMMIT, DURABLE_CHECKPOINT, DURABLE_LOG,
    DURABLE_RECOVER, EXECUTE, INSTALL, SAMPLE, SEED_ROWS, VACUUM,
};
use replibench::trace::Tracer;
use replibench::workload::Workload;
use replipred::repl::Schedule;

/// Simulates and replays every cell, asserting that the replay's call
/// count of every layer equals the count derived from the report.
/// Returns the calls summed over the cells.
fn assert_fidelity(plans: &[CellPlan]) -> BTreeMap<&'static str, u64> {
    let mut total = BTreeMap::new();
    for (i, plan) in plans.iter().enumerate() {
        let report = plan.simulate();
        let mut tracer = Tracer::new(true);
        tracer.set_cell(i as u32);
        replay_cell(plan, &report, &mut tracer).expect("the replay follows the report");
        let made = tracer.calls(i as u32);
        let derived = plan.derived_calls(&report);
        for (layer, &want) in &derived {
            let got = made.get(layer).copied().unwrap_or(0);
            assert_eq!(
                got, want,
                "{layer}.calls of cell {i} ({:?}, n = {})",
                plan.design, plan.cfg.replicas
            );
            *total.entry(*layer).or_default() += got;
        }
        for layer in made.keys() {
            assert!(
                derived.contains_key(layer),
                "undeclared layer {layer} in cell {i}"
            );
        }
    }
    total
}

/// The workload's cells with 60 s windows, at most four replicas, and
/// the fault schedule moved inside the shorter window.
fn shortened(w: Workload, seed: u64) -> Vec<CellPlan> {
    CellPlan::for_workload(w, seed)
        .into_iter()
        .map(|mut plan| {
            plan.cfg.warmup = 5.0;
            plan.cfg.duration = 60.0;
            plan.cfg.replicas = plan.cfg.replicas.min(4);
            if w.durable() {
                plan.cfg.schedule =
                    Schedule::parse("crash@20=1,join@40=1,window=10").expect("parses");
            }
            plan
        })
        .collect()
}

#[test]
fn update_long_replay_matches_the_report() {
    let calls = assert_fidelity(&shortened(Workload::UpdateLong, 2009));
    for layer in [
        INSTALL, SEED_ROWS, SAMPLE, EXECUTE, COMMIT, APPLY, VACUUM, CERTIFY,
    ] {
        assert!(calls[layer] > 0, "{layer} is exercised");
    }
    assert_eq!(calls[DURABLE_LOG], 0);
}

#[test]
fn durable_rejoin_replay_matches_the_report() {
    let calls = assert_fidelity(&shortened(Workload::DurableRejoin, 2009));
    assert_eq!(calls[DURABLE_RECOVER], 1, "one rejoin, one recovery");
    assert!(
        calls[DURABLE_CHECKPOINT] > 4,
        "initial and vacuum-cadence checkpoints"
    );
    assert!(
        calls[DURABLE_LOG] > calls[APPLY],
        "the master logs its own commits too"
    );
    assert_eq!(calls[CERTIFY], 0, "single-master certifies inside sidb");
}

#[test]
fn scaleout_quick_replay_matches_the_report() {
    let calls = assert_fidelity(&shortened(Workload::ScaleoutQuick, 7));
    // Replicas capped at four: (1 + 4 + 4) per design.
    assert_eq!(calls[INSTALL], 18);
    assert_eq!(calls[DURABLE_CHECKPOINT], 0);
}

#[test]
#[ignore = "replays the full workloads; run with --release -- --ignored"]
fn full_workload_replays_match_their_reports() {
    for w in Workload::ALL {
        assert_fidelity(&CellPlan::for_workload(w, 2009));
    }
}
