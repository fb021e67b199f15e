//! The multi-master cluster simulation (paper Figures 1 and 4).
//!
//! Architecture, mirroring the Tashkent-style prototype:
//!
//! - A load balancer forwards each incoming transaction to the least
//!   loaded replica (and adds a small LAN delay).
//! - Every replica executes reads and updates locally against its own
//!   snapshot-isolation engine; snapshots are the replica's *local* latest
//!   version (GSI: possibly stale, never blocking).
//! - At commit, the replica proxy extracts the update's writeset and
//!   invokes the certification service (a 12 ms round trip). The certifier
//!   orders and conflict-checks writesets globally (first committer wins).
//! - Certified writesets are propagated to *all* replicas and applied in
//!   global order. On the origin replica the application is free (the
//!   update's own execution already paid `wc`); on the other `N−1`
//!   replicas it costs the sampled `ws` CPU/disk demands — exactly the
//!   `(N−1)·Pw·ws` term of the analytical model.
//! - Aborted updates are retried by the client against a fresh snapshot.
//!
//! Time-phased schedules ([`SimConfig::schedule`]) inject faults and
//! load swings mid-run: a crashed replica stops serving and its
//! in-flight work fails over to the survivors; a rejoining replica
//! replays the writesets it missed (a deterministic state-transfer lag)
//! before taking load; a certifier outage queues certification requests
//! until restart; client-population ramps park or wake closed-loop
//! clients. A disabled schedule leaves the run byte-identical to a
//! schedule-free build.
//!
//! Everything but certification and catch-up lives in the shared
//! `cluster` core; this module is its multi-master policy.

use std::collections::VecDeque;

use replipred_sidb::{Database, WriteSet};
use replipred_workload::spec::WorkloadSpec;

use crate::certifier::{Certification, Certifier};
use crate::cluster::{self, Attempt, Eng, Ev, NodeState, Policy, World};
use crate::config::SimConfig;
use crate::metrics::RunReport;

/// The multi-master cluster simulator.
pub struct MultiMasterSim {
    spec: WorkloadSpec,
    cfg: SimConfig,
}

impl MultiMasterSim {
    /// Creates a simulator for `cfg.replicas` replicas.
    pub fn new(spec: WorkloadSpec, cfg: SimConfig) -> Self {
        MultiMasterSim { spec, cfg }
    }

    /// Name of the workload being simulated.
    pub fn spec_name(&self) -> &str {
        &self.spec.name
    }

    /// Runs the simulation and reports measured performance.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.replicas` is zero.
    pub fn run(self) -> RunReport {
        assert!(self.cfg.replicas > 0, "need at least one replica");
        let n = self.cfg.replicas;
        let clients = n * self.spec.clients_per_replica;
        let design = MultiMaster {
            certifier: Certifier::new(),
            certifier_delay: self.cfg.certifier_delay,
            certifier_up: true,
            cert_stalled: VecDeque::new(),
        };
        cluster::run(&self.spec, &self.cfg, n, clients, design).0
    }
}

/// The multi-master policy state: the certification service.
struct MultiMaster {
    certifier: Certifier,
    certifier_delay: f64,
    /// False during an injected certifier outage.
    certifier_up: bool,
    /// Certification requests stalled by an outage, drained in FIFO
    /// order at restart (their stall time shows up as response time).
    cert_stalled: VecDeque<CertRequest>,
}

/// An update whose writeset has reached the certification service.
struct CertRequest {
    /// The executed attempt (its local transaction is already aborted).
    a: Attempt,
    writeset: WriteSet,
}

/// Multi-master events: the certifier round trip elapsed.
struct Certify(CertRequest);

impl Policy for MultiMaster {
    type Event = Certify;
    const RNG_SALT: u64 = 0xD15C_0FFE;

    /// Anchors the certifier at the seeded database version: writesets
    /// certify with their local base_version as-is, and replicas retire
    /// global versions from the next one.
    fn seeded(&mut self, db: &mut Database) -> u64 {
        self.certifier = Certifier::new_at(db.version());
        db.version() + 1
    }

    /// Executes locally, extracts the writeset and sends it to the
    /// certifier.
    fn commit_update(engine: &mut Eng<Self>, a: Attempt) {
        let now = engine.now().as_secs();
        let w = engine.world_mut();
        let db = &mut w.nodes[a.node].db;
        db.set_time(now);
        w.pool
            .plan()
            .execute(db, a.txn, &a.template)
            .expect("workload references seeded tables");
        let writeset = db.writeset_of(a.txn).expect("transaction is active");
        // Local effects are installed through the certified writeset in
        // global order; discard the local buffer. The certifier is
        // anchored at the seeded version, so the local base_version is
        // already in the global numbering.
        db.abort(a.txn).expect("transaction is active");
        let delay = w.design.certifier_delay;
        engine.schedule_event_in(delay, Ev::Design(Certify(CertRequest { a, writeset })));
    }

    fn fire(engine: &mut Eng<Self>, Certify(request): Certify) {
        certify(engine, request);
    }

    /// One round of rejoin catch-up: replay every writeset the replica
    /// missed, pay the state-transfer lag (missed count × mean ws demands —
    /// deterministic, no RNG draws), then re-check. When no new writesets
    /// accumulated during the lag the replica is caught up and takes load.
    fn catchup(engine: &mut Eng<Self>, i: usize) {
        let w = engine.world_mut();
        if w.nodes[i].state != NodeState::CatchingUp {
            return;
        }
        let applied = w.nodes[i].apply_next - 1;
        let target = w.design.certifier.version();
        if applied >= target {
            w.nodes[i].state = NodeState::Up;
            cluster::drain_stranded(engine);
            return;
        }
        let missed = w.design.certifier.writesets_between(applied, target);
        let (ws_cpu, ws_disk) = {
            let spec = w.pool.spec();
            (spec.ws_cpu, spec.ws_disk)
        };
        for ws in missed {
            cluster::retire(&mut w.nodes[i], ws);
        }
        let lag = missed.len() as f64 * (ws_cpu + ws_disk);
        engine.schedule_event_in(lag.max(f64::MIN_POSITIVE), Ev::CatchupDone(i));
    }

    fn certifier(engine: &mut Eng<Self>, up: bool) -> bool {
        let mm = &mut engine.world_mut().design;
        let changed = mm.certifier_up != up;
        mm.certifier_up = up;
        if changed && up {
            // Re-certify the stalled requests in arrival order; their
            // queueing time is part of their response time.
            while let Some(req) = {
                let mm = &mut engine.world_mut().design;
                if mm.certifier_up {
                    mm.cert_stalled.pop_front()
                } else {
                    None
                }
            } {
                certify(engine, req);
            }
        }
        changed
    }

    fn label(_w: &World<Self>, i: usize) -> String {
        format!("replica{i}")
    }
}

/// Resolves a certification round trip: commit propagates the writeset to
/// every replica, abort retries the client's transaction.
///
/// Fault handling: a request whose origin replica died while the round
/// trip was in flight is dropped and its client fails over (the origin's
/// local execution state is gone); during a certifier outage requests
/// queue and are re-certified in order at restart.
fn certify(engine: &mut Eng<MultiMaster>, request: CertRequest) {
    if !cluster::is_live(engine.world(), &request.a) {
        let a = request.a;
        cluster::route_any(engine, a.client, a.template, a.started);
        return;
    }
    let w = engine.world_mut();
    if !w.design.certifier_up {
        w.design.cert_stalled.push_back(request);
        return;
    }
    let CertRequest { a, writeset } = request;
    match w.design.certifier.certify(&writeset) {
        Certification::Commit(version) => {
            // Remote replicas first consume the sampled ws demands, then
            // retire in order; the origin pays nothing (its execution
            // already did the work) and retires as soon as the prefix
            // allows.
            cluster::broadcast(engine, a.node, version, &writeset);
            cluster::mark_ready(engine, a.node, version, writeset);
            cluster::respond(engine, a.client, a.node, a.started, Some(true));
        }
        Certification::Abort => cluster::retry(engine, a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replipred_core::Schedule;
    use replipred_workload::{heap, rubis, tpcw};

    fn quick(n: usize, seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 40.0,
            ..SimConfig::quick(n, seed)
        }
    }

    #[test]
    fn browsing_scales_with_replicas() {
        let x1 = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Browsing), quick(1, 1))
            .run()
            .throughput_tps;
        let x4 = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Browsing), quick(4, 1))
            .run()
            .throughput_tps;
        assert!(
            x4 > 3.3 * x1,
            "browsing should scale near-linearly: x1={x1} x4={x4}"
        );
    }

    #[test]
    fn ordering_scales_sublinearly() {
        let x1 = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Ordering), quick(1, 2))
            .run()
            .throughput_tps;
        let x8 = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Ordering), quick(8, 2))
            .run()
            .throughput_tps;
        let speedup = x8 / x1;
        assert!(
            (3.0..7.5).contains(&speedup),
            "ordering speedup {speedup} (x1={x1}, x8={x8})"
        );
    }

    #[test]
    fn writesets_propagate_to_all_replicas() {
        let report = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(3, 3)).run();
        // Each committed update is applied on N-1 = 2 remote replicas.
        let expected = report.update_commits * 2;
        let ratio = report.writesets_applied as f64 / expected as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "applied {} vs expected {expected}",
            report.writesets_applied
        );
        // Paper: ~275-byte average writesets.
        assert!(
            (100.0..600.0).contains(&report.mean_writeset_bytes),
            "ws bytes {}",
            report.mean_writeset_bytes
        );
    }

    #[test]
    fn replicas_converge_after_quiescence() {
        // Determinism + total order: all replicas apply the same writeset
        // sequence, so their versions advance identically. (Full state
        // equality is exercised in the integration tests.)
        let report = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(2, 5)).run();
        assert!(report.update_commits > 0);
    }

    #[test]
    fn heap_stress_raises_abort_rate() {
        let base = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(4, 7))
            .run()
            .abort_rate;
        let stressed = MultiMasterSim::new(
            heap::with_heap_stress(&tpcw::mix(tpcw::Mix::Shopping), 48),
            quick(4, 7),
        )
        .run()
        .abort_rate;
        assert!(
            stressed > base + 0.002,
            "stressed {stressed} vs base {base}"
        );
    }

    #[test]
    fn read_only_mix_never_contacts_certifier() {
        let report = MultiMasterSim::new(rubis::mix(rubis::Mix::Browsing), quick(2, 9)).run();
        assert_eq!(report.conflict_aborts, 0);
        assert_eq!(report.writesets_applied, 0);
    }

    #[test]
    fn conflict_window_stays_bounded_under_saturation() {
        // With admission control, even a heavily loaded ordering cluster
        // keeps open-snapshot windows (hence abort rates) bounded — the
        // paper's assumption 5 in action.
        let report = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Ordering), quick(8, 31)).run();
        assert!(
            report.abort_rate < 0.05,
            "A_8 should stay small for standard TPC-W: {}",
            report.abort_rate
        );
        assert!(report.throughput_tps > 100.0);
    }

    #[test]
    fn deterministic_runs() {
        let a = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(2, 11)).run();
        let b = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(2, 11)).run();
        assert_eq!(a.throughput_tps, b.throughput_tps);
        assert_eq!(a.conflict_aborts, b.conflict_aborts);
    }

    #[test]
    fn eventless_schedule_only_adds_transient_windows() {
        // Turning on windowed collection without any events must not
        // perturb the run: the steady-state numbers stay bit-identical.
        let plain = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(2, 30)).run();
        let cfg = SimConfig {
            schedule: Schedule::new().window(5.0),
            ..quick(2, 30)
        };
        let mut windowed = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let transient = windowed
            .transient
            .take()
            .expect("windowing enables transient");
        assert_eq!(plain, windowed);
        assert!(!transient.windows.is_empty());
        assert!(transient.recovery_time.is_none(), "no fault, no recovery");
        let window_commits: u64 = transient.windows.iter().map(|w| w.commits).sum();
        assert_eq!(window_commits, plain.read_commits + plain.update_commits);
    }

    #[test]
    fn crash_and_rejoin_reports_recovery() {
        let cfg = SimConfig {
            schedule: Schedule::new().crash(20.0, 1).join(30.0, 1).window(2.0),
            ..quick(2, 31)
        };
        let a = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg.clone()).run();
        let t = a.transient.as_ref().expect("schedule enables transient");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(echoed, ["crash replica 1", "rejoin replica 1"]);
        assert!(a.update_commits > 0, "survivor keeps committing updates");
        assert!(
            t.recovery_time.is_some(),
            "throughput should recover after the rejoin"
        );
        let b = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        assert_eq!(a, b, "phased runs must stay deterministic");
    }

    #[test]
    fn certifier_outage_stalls_then_releases_updates() {
        let cfg = SimConfig {
            schedule: Schedule::new()
                .certifier_down(20.0)
                .certifier_up(28.0)
                .window(2.0),
            ..quick(2, 32)
        };
        let report = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Ordering), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        assert_eq!(t.events.len(), 2);
        // Updates stall during the outage but the backlog drains: commits
        // still happen overall and the run terminates.
        assert!(report.update_commits > 0);
        let outage_updates: u64 = t
            .windows
            .iter()
            .filter(|w| w.start >= 20.0 && w.end <= 28.0)
            .map(|w| w.update_commits)
            .sum();
        let before_updates: u64 = t
            .windows
            .iter()
            .filter(|w| w.end <= 20.0)
            .map(|w| w.update_commits)
            .sum();
        assert!(
            outage_updates < before_updates,
            "outage windows ({outage_updates}) should commit fewer updates \
             than the pre-fault windows ({before_updates})"
        );
    }

    #[test]
    fn flash_crowd_raises_load_then_subsides() {
        let base = MultiMasterSim::new(rubis::mix(rubis::Mix::Bidding), quick(2, 33)).run();
        let cfg = SimConfig {
            schedule: Schedule::new().flash_crowd(15.0, 2.0, 20.0).window(5.0),
            ..quick(2, 33)
        };
        let surged = MultiMasterSim::new(rubis::mix(rubis::Mix::Bidding), cfg).run();
        let t = surged.transient.as_ref().expect("transient present");
        assert_eq!(t.events.len(), 2, "ramp up and ramp down are echoed");
        assert!(
            surged.throughput_tps > base.throughput_tps,
            "doubling clients for half the window should lift throughput: \
             base={} surged={}",
            base.throughput_tps,
            surged.throughput_tps
        );
    }

    #[test]
    fn all_replicas_down_strands_no_work() {
        // Crash the only replica and bring it back: every in-flight and
        // newly arriving transaction strands, then drains at rejoin. The
        // accounting must balance (no lost clients, run keeps going).
        let cfg = SimConfig {
            schedule: Schedule::new().crash(15.0, 0).join(25.0, 0).window(5.0),
            ..quick(1, 34)
        };
        let report = MultiMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        assert!(report.throughput_tps > 0.0, "work resumes after rejoin");
        assert!(
            t.slo_violation_secs > 0.0,
            "a full blackout must register as SLO violation time"
        );
    }
}
