//! Golden-report snapshots: small simulated runs serialized to checked-in
//! JSON files, asserted **byte-identical** on every run.
//!
//! - `rubis_bidding_sweep_seed2009.json` pins a steady-state sweep over
//!   every design;
//! - `failure_paths_seed2009.json` pins the fault paths one short phased
//!   run each: MM replica crash/rejoin, certifier outage, full blackout
//!   and flash crowd; SM slave and master crashes, durable recovery and
//!   the checkpoint state-transfer fallback; standalone ramps with an
//!   ignored cluster event.
//!
//! The jobs=1-vs-8 determinism tests prove a run agrees with itself; this
//! snapshot pins the absolute output across commits, so *any* behavioural
//! drift — an RNG stream reordered, an event tie broken differently, a
//! float folded in another order, a serializer change — fails loudly with
//! a diffable artifact instead of silently shifting every number.
//!
//! To regenerate after an *intentional* behaviour change, bless the new
//! snapshot and re-run:
//!
//! ```text
//! REPLIPRED_BLESS=1 cargo test --test golden_report
//! ```
//!
//! and review the JSON diff like any other code change.

use std::path::{Path, PathBuf};

use replipred::model::Design;
use replipred::repl::{DurabilityConfig, Schedule, SimConfig};
use replipred::scenario::{Scenario, ScenarioReport};
use serde::Serialize;

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(file)
}

/// Serializes `value`, (optionally) blesses `path` with it, and asserts
/// the checked-in snapshot is byte-identical. Returns the snapshot text.
fn assert_matches_golden(value: &impl Serialize, path: &Path) -> String {
    let mut json = serde_json::to_string_pretty(value).expect("report serializes");
    json.push('\n');
    if std::env::var("REPLIPRED_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        // Write-then-rename so a concurrent reader never sees a
        // truncated snapshot.
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, &json).expect("write blessed snapshot");
        std::fs::rename(&tmp, path).expect("publish blessed snapshot");
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden snapshot {}: {e}\n(run with REPLIPRED_BLESS=1 to create it)",
            path.display()
        )
    });
    assert!(
        json == golden,
        "report drifted from the golden snapshot {}.\n\
         If this change is intentional, regenerate with REPLIPRED_BLESS=1 \
         and review the JSON diff.\n--- got ---\n{}\n--- want ---\n{}",
        path.display(),
        &json[..json.len().min(2000)],
        &golden[..golden.len().min(2000)],
    );
    golden
}

/// The pinned sweep: rubis-bidding × all designs × n ∈ {1, 4}, seed 2009
/// (the paper's year, the repo-wide default seed).
fn golden_scenario() -> Scenario {
    Scenario::published("rubis-bidding")
        .expect("published workload")
        .all_designs()
        .replicas([1, 4])
        .seed(2009)
        .simulate(true)
        .sim_config(SimConfig {
            warmup: 2.0,
            duration: 8.0,
            ..SimConfig::quick(0, 0)
        })
}

/// One sequential test so blessing never races a parallel reader: run,
/// (optionally) bless, byte-compare, then structurally check the file.
#[test]
fn scenario_report_matches_the_checked_in_golden_snapshot() {
    let report = golden_scenario().run().expect("golden scenario runs");
    let golden = assert_matches_golden(&report, &golden_path("rubis_bidding_sweep_seed2009.json"));

    // The snapshot is not just bytes: it must stay a loadable report with
    // the shape the sweep promises (guards against blessing a truncated
    // or hand-mangled file).
    let report: ScenarioReport = serde_json::from_str(&golden).expect("snapshot deserializes");
    assert_eq!(report.workload, "rubis-bidding");
    assert_eq!(report.seed, 2009);
    assert_eq!(report.replicas, vec![1, 4]);
    assert_eq!(report.designs.len(), 3);
    for d in &report.designs {
        assert_eq!(d.measured.len(), 2, "{}: two simulated points", d.design);
        assert!(d.predicted.is_some(), "{}: predicted curve", d.design);
        for r in &d.measured {
            assert!(r.throughput_tps > 0.0);
        }
    }
}

/// One pinned fault-path run: a design at one cluster size under a
/// schedule (and optionally durability).
#[derive(Serialize)]
struct FailureCase {
    name: String,
    report: ScenarioReport,
}

/// The pinned fault paths, seed 2009, rubis-bidding, 2 s warm-up and
/// 16 s measurement with 2 s transient windows.
fn failure_cases() -> Vec<(
    &'static str,
    Design,
    usize,
    &'static str,
    Option<DurabilityConfig>,
)> {
    let durable = DurabilityConfig {
        enabled: true,
        ..DurabilityConfig::default()
    };
    let capped = DurabilityConfig {
        log_retention: 4,
        ..durable.clone()
    };
    vec![
        (
            "mm-replica-crash-rejoin",
            Design::MultiMaster,
            3,
            "crash@5=1,join@12=1",
            None,
        ),
        (
            "mm-certifier-outage",
            Design::MultiMaster,
            3,
            "cert-down@6,cert-up@10",
            None,
        ),
        (
            "mm-blackout",
            Design::MultiMaster,
            3,
            "crash@5=0,crash@5=1,crash@5=2,join@12=0,join@12=1,join@12=2",
            None,
        ),
        (
            "mm-flash-crowd",
            Design::MultiMaster,
            3,
            "flash-crowd@6=2x6",
            None,
        ),
        (
            "sm-slave-crash-rejoin",
            Design::SingleMaster,
            3,
            "crash@5=1,join@12=1",
            None,
        ),
        (
            "sm-master-crash-rejoin",
            Design::SingleMaster,
            3,
            "crash@5=0,join@12=0",
            None,
        ),
        (
            "sm-durable-master-crash-rejoin",
            Design::SingleMaster,
            3,
            "crash@5=0,join@12=0",
            Some(durable),
        ),
        (
            "sm-durable-state-transfer",
            Design::SingleMaster,
            3,
            "crash@5=1,join@12=1",
            Some(capped),
        ),
        (
            "standalone-ramp",
            Design::Standalone,
            1,
            "clients@6=2,crash@5=0,clients@12=1",
            None,
        ),
    ]
}

#[test]
fn failure_paths_match_the_checked_in_golden_snapshot() {
    let cases: Vec<FailureCase> = failure_cases()
        .into_iter()
        .map(|(name, design, n, schedule, durability)| {
            let schedule = Schedule::parse(schedule)
                .expect("valid schedule")
                .window(2.0);
            let mut scenario = Scenario::published("rubis-bidding")
                .expect("published workload")
                .designs(vec![design])
                .replicas([n])
                .seed(2009)
                .predict(false)
                .simulate(true)
                .schedule(schedule)
                .sim_config(SimConfig {
                    warmup: 2.0,
                    duration: 16.0,
                    ..SimConfig::quick(0, 0)
                });
            if let Some(d) = durability {
                scenario = scenario.durability(d);
            }
            let report = scenario.run().expect("failure case runs");
            FailureCase {
                name: name.to_owned(),
                report,
            }
        })
        .collect();
    assert_matches_golden(&cases, &golden_path("failure_paths_seed2009.json"));
    for case in &cases {
        let run = &case.report.designs[0].measured[0];
        let t = run.transient.as_ref().expect("schedule enables transients");
        assert!(!t.events.is_empty(), "{}: events echoed", case.name);
        assert!(run.throughput_tps > 0.0, "{}: work completes", case.name);
    }
}
