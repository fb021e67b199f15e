//! The single-master cluster simulation (paper Figures 2 and 5).
//!
//! Architecture, mirroring the Ganymed-style prototype:
//!
//! - The load balancer sends every update transaction to the master and
//!   every read-only transaction to the least loaded replica (master
//!   included — the master's spare capacity serves reads, which is how
//!   read-dominated mixes keep scaling).
//! - The master executes updates under local snapshot isolation; its own
//!   concurrency control aborts write-write conflicts (no certifier).
//! - On commit, the master's proxy extracts the writeset (table triggers)
//!   and the load balancer relays it to every slave, which applies it in
//!   commit order at the sampled `ws` CPU/disk cost.
//! - Slaves never abort: they apply only committed writesets and serve
//!   read-only transactions from (possibly slightly stale) snapshots.
//!
//! Everything but master routing, the relay log, elections and rejoin
//! recovery lives in the shared `cluster` core; this module is its
//! single-master policy.

use std::collections::VecDeque;
use std::convert::Infallible;

use replipred_sidb::Database;
use replipred_workload::client::ClientId;
use replipred_workload::spec::{TxnTemplate, WorkloadSpec};

use crate::cluster::{self, Attempt, Eng, Ev, NodeState, Policy, Waiter, World};
use crate::config::SimConfig;
use crate::durable::NodeDurability;
use crate::metrics::RunReport;
use crate::wslog::WsLog;

/// Per-row cost of a checkpoint state transfer, as a fraction of one
/// writeset's mean CPU+disk demand. Shipping and installing a checkpoint
/// row is cheaper than replaying a full writeset (no certification, no
/// per-commit framing), but scales with the database size instead of the
/// missed-commit count.
const STATE_TRANSFER_ROW_COST: f64 = 0.25;

/// The single-master cluster simulator.
pub struct SingleMasterSim {
    spec: WorkloadSpec,
    cfg: SimConfig,
}

impl SingleMasterSim {
    /// Creates a simulator with 1 master and `cfg.replicas - 1` slaves.
    pub fn new(spec: WorkloadSpec, cfg: SimConfig) -> Self {
        SingleMasterSim { spec, cfg }
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
        self.run_probed().0
    }

    /// [`SingleMasterSim::run`] plus internal state probes the
    /// boundedness and recovery tests assert on (not part of the report,
    /// so steady-state goldens stay byte-identical).
    fn run_probed(self) -> (RunReport, SmProbe) {
        assert!(self.cfg.replicas > 0, "need at least the master");
        let n = self.cfg.replicas;
        let clients = n * self.spec.clients_per_replica;
        let design = SingleMaster {
            master: 0,
            promoting: None,
            ws_seq: 0,
            ws_log: WsLog::new(),
            log_retention: self.cfg.durability.log_retention,
            state_transfers: 0,
            pending_updates: VecDeque::new(),
        };
        let (report, w) = cluster::run(&self.spec, &self.cfg, n, clients, design);
        let probe = SmProbe {
            ws_log_len: w.design.ws_log.len(),
            ws_log_peak: w.design.ws_log.peak_len(),
            ws_seq: w.design.ws_seq,
            state_transfers: w.design.state_transfers,
        };
        (report, probe)
    }
}

/// Internal counters exposed by [`SingleMasterSim::run_probed`] for the
/// log-boundedness and recovery tests.
#[allow(dead_code)] // read by tests; the public entry point drops it
struct SmProbe {
    /// Relay-log entries retained at the end of the run.
    ws_log_len: usize,
    /// High-water mark of retained relay-log entries.
    ws_log_peak: usize,
    /// Total writesets ever committed.
    ws_seq: u64,
    /// Checkpoint state transfers taken by rejoiners that outran the
    /// relay log.
    state_transfers: u64,
}

/// The single-master policy state.
struct SingleMaster {
    /// `nodes[master]` executes updates; the rest are slaves.
    master: usize,
    /// Slave under promotion: updates queue until it has applied the
    /// full writeset log, then it becomes the master.
    promoting: Option<usize>,
    /// Master commit counter used to sequence slave-side application.
    ws_seq: u64,
    /// Committed writesets awaiting replay by lagging replicas. Vacuum
    /// truncates entries below the minimum index any replica (Up or
    /// Down) can still need, so the log stays bounded under steady load.
    ws_log: WsLog,
    /// Hard relay-log retention cap (0 = unbounded); rejoiners that fall
    /// behind it take a checkpoint state transfer.
    log_retention: u64,
    /// Checkpoint state transfers performed (fallback rejoin path).
    state_transfers: u64,
    /// Updates waiting for a live master (crash or promotion in
    /// progress), drained in FIFO order once one exists.
    pending_updates: VecDeque<Waiter>,
}

impl Policy for SingleMaster {
    type Event = Infallible;
    const RNG_SALT: u64 = 0x5A5A_1234;
    const DURABLE: bool = true;

    /// Slaves retire relay-log sequence numbers from 1.
    fn seeded(&mut self, _db: &mut Database) -> u64 {
        1
    }

    /// Routes an update to the master, or queues it while the master is
    /// dead or a slave promotion is still replaying the log.
    fn route_update(engine: &mut Eng<Self>, client: ClientId, template: TxnTemplate, started: f64) {
        let w = engine.world_mut();
        let sm = &mut w.design;
        if sm.promoting.is_some() || w.nodes[sm.master].state != NodeState::Up {
            sm.pending_updates.push_back((client, template, started));
            return;
        }
        let master = sm.master;
        cluster::admit(engine, client, master, template, started);
    }

    /// Local SI certification at the master, then relay to every live
    /// slave; slaves consume resources concurrently but retire strictly
    /// in master commit order. Crashed or catching-up slaves recover the
    /// writeset from the relay log on rejoin.
    fn commit_update(engine: &mut Eng<Self>, a: Attempt) {
        debug_assert_eq!(
            a.node,
            engine.world().design.master,
            "updates only execute on the master"
        );
        cluster::commit_locally(engine, a, |engine, node, local_version, writeset| {
            let w = engine.world_mut();
            let sm = &mut w.design;
            sm.ws_seq += 1;
            let pushed = sm.ws_log.push(writeset.clone());
            debug_assert_eq!(pushed, sm.ws_seq, "relay log out of step");
            let seq = sm.ws_seq;
            if let Some(d) = w.nodes[node].durable.as_mut() {
                d.log(seq, local_version, &writeset);
            }
            cluster::broadcast(engine, node, seq, &writeset);
        });
    }

    fn fire(_engine: &mut Eng<Self>, ev: Infallible) {
        match ev {}
    }

    /// A slave that has caught up with the full log completes a pending
    /// promotion.
    fn applied(engine: &mut Eng<Self>) {
        try_complete_promotion(engine);
    }

    /// Vacuum-cadence durability work: re-checkpoint every live node (its
    /// redo log restarts from the fresh image) and truncate the relay log
    /// below the minimum sequence any replica can still need. With
    /// durability on that floor is each node's durable horizon; without it,
    /// a node's next unapplied sequence. Either way the log stays bounded
    /// under steady load while never dropping an entry a rejoiner (even a
    /// currently-Down one) could ask for.
    fn vacuumed(w: &mut World<Self>) {
        let sm = &mut w.design;
        let ws_seq = sm.ws_seq;
        for (i, node) in w.nodes.iter_mut().enumerate() {
            if node.state != NodeState::Up {
                continue; // frozen (Down) or mid-replay (CatchingUp)
            }
            if let Some(d) = node.durable.as_mut() {
                let applied = if i == sm.master {
                    ws_seq
                } else {
                    node.apply_next - 1
                };
                d.checkpoint(&node.db, applied);
            }
        }
        let min_needed = w
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| match &node.durable {
                Some(d) => d.durable_seq() + 1,
                None if node.state == NodeState::Up && i == sm.master => ws_seq + 1,
                None => node.apply_next,
            })
            .min()
            .unwrap_or(ws_seq + 1);
        sm.ws_log.truncate_below(min_needed);
        if sm.log_retention > 0 {
            sm.ws_log.cap(sm.log_retention);
        }
    }

    /// A crashed master's database holds everything it committed: record
    /// its log position so a later rejoin replays only what it missed.
    /// Losing the master (or the promotion candidate) starts an election.
    fn crashed(engine: &mut Eng<Self>, i: usize) {
        let w = engine.world_mut();
        if w.design.master == i {
            w.nodes[i].apply_next = w.design.ws_seq + 1;
        }
        if w.nodes[w.design.master].state != NodeState::Up || w.design.promoting == Some(i) {
            elect(engine);
        }
    }

    /// First step of a rejoin. With durability enabled the node *rebuilds*
    /// its database from its frozen checkpoint + redo log — the in-memory
    /// image is gone with the crash — paying the WAL replay as lag before
    /// relay-log catch-up starts. Without durability the in-memory image is
    /// assumed to have survived (the pre-durability model) and catch-up
    /// starts immediately.
    fn rejoin(engine: &mut Eng<Self>, i: usize) {
        let w = engine.world_mut();
        let Some((db, relay_seq, replayed)) =
            w.nodes[i].durable.as_ref().map(NodeDurability::recover)
        else {
            Self::catchup(engine, i);
            return;
        };
        let (ws_cpu, ws_disk) = {
            let spec = w.pool.spec();
            (spec.ws_cpu, spec.ws_disk)
        };
        let s = &mut w.nodes[i];
        s.db = db;
        s.apply_next = relay_seq + 1;
        s.apply_ready.clear();
        let lag = replayed as f64 * (ws_cpu + ws_disk);
        engine.schedule_event_in(lag.max(f64::MIN_POSITIVE), Ev::CatchupDone(i));
    }

    /// One round of rejoin catch-up: replay every writeset the node missed
    /// from the relay log, pay the replay lag (missed count × mean ws
    /// demands — deterministic, no RNG draws), then re-check. When the relay
    /// log has been truncated past the node's position, fall back to a
    /// checkpoint state transfer from the most caught-up live node. When no
    /// new writesets accumulated during the lag the node is caught up and
    /// takes load; if the cluster is masterless it stands for election.
    fn catchup(engine: &mut Eng<Self>, i: usize) {
        let w = engine.world_mut();
        if w.nodes[i].state != NodeState::CatchingUp {
            return;
        }
        let applied = w.nodes[i].apply_next - 1;
        let target = w.design.ws_seq;
        if applied >= target {
            w.nodes[i].state = NodeState::Up;
            if w.design.promoting.is_none() && w.nodes[w.design.master].state != NodeState::Up {
                elect(engine);
            }
            try_complete_promotion(engine);
            cluster::drain_stranded(engine);
            return;
        }
        let ws_demand = {
            let spec = w.pool.spec();
            spec.ws_cpu + spec.ws_disk
        };
        let lag = match w.design.ws_log.range_from(applied + 1, target) {
            Some(missed) => {
                let s = &mut w.nodes[i];
                for ws in &missed {
                    cluster::retire(s, ws);
                }
                debug_assert_eq!(s.apply_next, target + 1);
                missed.len() as f64 * ws_demand
            }
            None => state_transfer(w, i, ws_demand),
        };
        engine.schedule_event_in(lag.max(f64::MIN_POSITIVE), Ev::CatchupDone(i));
    }

    fn label(w: &World<Self>, i: usize) -> String {
        if i == w.design.master {
            "master".to_string()
        } else {
            format!("slave{i}")
        }
    }
}

/// Picks the most caught-up live node as the promotion candidate (ties
/// break toward the lowest index). With no live node the cluster waits:
/// updates queue until a rejoin completes and triggers a new election.
fn elect(engine: &mut Eng<SingleMaster>) {
    let w = engine.world_mut();
    let mut best: Option<(usize, u64)> = None;
    for (i, s) in w.nodes.iter().enumerate() {
        if s.state != NodeState::Up {
            continue;
        }
        if best.map_or(true, |(_, apply)| s.apply_next > apply) {
            best = Some((i, s.apply_next));
        }
    }
    w.design.promoting = best.map(|(i, _)| i);
    if best.is_some() {
        try_complete_promotion(engine);
    }
}

/// Completes a pending promotion once the candidate has applied the full
/// writeset log, then releases the queued updates to the new master.
fn try_complete_promotion(engine: &mut Eng<SingleMaster>) {
    let w = engine.world_mut();
    match w.design.promoting {
        Some(c) if w.nodes[c].apply_next == w.design.ws_seq + 1 => {
            w.design.master = c;
            w.design.promoting = None;
        }
        _ => return,
    }
    // Re-route the updates that queued while no master was available.
    while let Some((client, template, started)) = {
        let w = engine.world_mut();
        let sm = &mut w.design;
        if sm.promoting.is_none() && w.nodes[sm.master].state == NodeState::Up {
            sm.pending_updates.pop_front()
        } else {
            None
        }
    } {
        SingleMaster::route_update(engine, client, template, started);
    }
}

/// Checkpoint-based state transfer: the relay log no longer holds the
/// sequences node `i` needs, so clone the most caught-up live node's
/// state wholesale. Returns the transfer lag (per-row install cost ×
/// rows). With no live source the rejoiner waits one mean ws demand and
/// retries.
fn state_transfer(w: &mut World<SingleMaster>, i: usize, ws_demand: f64) -> f64 {
    let source = w
        .nodes
        .iter()
        .enumerate()
        .filter(|(j, s)| *j != i && s.state == NodeState::Up)
        .map(|(j, s)| {
            let covered = if j == w.design.master {
                w.design.ws_seq
            } else {
                s.apply_next - 1
            };
            (covered, j)
        })
        .max();
    let Some((covered, j)) = source else {
        // No live node to copy from: stay CatchingUp and retry after one
        // mean ws demand.
        return ws_demand;
    };
    let cp = w.nodes[j].db.checkpoint();
    let rows = cp.row_count() as f64;
    let s = &mut w.nodes[i];
    s.db = Database::restore(&cp);
    s.apply_next = covered + 1;
    s.apply_ready.clear();
    if let Some(d) = s.durable.as_mut() {
        // The transferred image is the node's new durable baseline.
        d.rebase(cp, covered);
    }
    w.design.state_transfers += 1;
    rows * ws_demand * STATE_TRANSFER_ROW_COST
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DurabilityConfig;
    use replipred_core::Schedule;
    use replipred_workload::{rubis, tpcw};

    fn quick(n: usize, seed: u64) -> SimConfig {
        SimConfig {
            warmup: 10.0,
            duration: 40.0,
            ..SimConfig::quick(n, seed)
        }
    }

    #[test]
    fn browsing_scales_with_replicas() {
        let x1 = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Browsing), quick(1, 1))
            .run()
            .throughput_tps;
        let x4 = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Browsing), quick(4, 1))
            .run()
            .throughput_tps;
        assert!(x4 > 3.2 * x1, "x1={x1} x4={x4}");
    }

    #[test]
    fn ordering_saturates_at_the_master() {
        // Paper Figure 8: ordering saturates around 4 replicas.
        let x4 = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Ordering), quick(4, 2))
            .run()
            .throughput_tps;
        let x8 = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Ordering), quick(8, 2))
            .run()
            .throughput_tps;
        assert!(x8 < 1.25 * x4, "ordering should saturate: x4={x4} x8={x8}");
    }

    #[test]
    fn master_is_the_bottleneck_for_update_mixes() {
        let report = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Ordering), quick(6, 3)).run();
        assert!(
            report.bottleneck.starts_with("master"),
            "bottleneck {}",
            report.bottleneck
        );
    }

    #[test]
    fn slaves_apply_every_committed_writeset() {
        let report = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(3, 4)).run();
        let expected = report.update_commits * 2; // two slaves
        let ratio = report.writesets_applied as f64 / expected as f64;
        assert!(
            (0.9..1.1).contains(&ratio),
            "applied {} expected {expected}",
            report.writesets_applied
        );
    }

    #[test]
    fn read_only_mix_spreads_over_all_nodes() {
        let report = SingleMasterSim::new(rubis::mix(rubis::Mix::Browsing), quick(4, 5)).run();
        assert_eq!(report.conflict_aborts, 0);
        // With perfect spreading all nodes are similarly utilized; the max
        // must not be wildly above the mean.
        assert!(report.max_utilization < report.mean_cpu_utilization * 1.5 + 0.1);
    }

    #[test]
    fn deterministic_runs() {
        let a = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(2, 6)).run();
        let b = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(2, 6)).run();
        assert_eq!(a.throughput_tps, b.throughput_tps);
    }

    #[test]
    fn admission_control_bounds_concurrency_without_capping_throughput() {
        // A generous MPL (32, default) and a tight-but-sufficient MPL (8)
        // must deliver similar throughput: the pool only limits *open
        // snapshots*, not the served load, as long as it exceeds the
        // concurrency knee of the node.
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let wide = SingleMasterSim::new(spec.clone(), quick(2, 21)).run();
        let tight_cfg = SimConfig {
            mpl: 8,
            ..quick(2, 21)
        };
        let tight = SingleMasterSim::new(spec, tight_cfg).run();
        let rel = (wide.throughput_tps - tight.throughput_tps).abs() / wide.throughput_tps;
        assert!(
            rel < 0.10,
            "wide {} vs tight {}",
            wide.throughput_tps,
            tight.throughput_tps
        );
    }

    #[test]
    fn tiny_mpl_serializes_and_lowers_throughput() {
        // MPL = 1 forces one transaction at a time per node: a real
        // throughput ceiling far below the default.
        let spec = tpcw::mix(tpcw::Mix::Shopping);
        let wide = SingleMasterSim::new(spec.clone(), quick(2, 22)).run();
        let serial_cfg = SimConfig {
            mpl: 1,
            ..quick(2, 22)
        };
        let serial = SingleMasterSim::new(spec, serial_cfg).run();
        assert!(
            serial.throughput_tps < 0.8 * wide.throughput_tps,
            "serial {} vs wide {}",
            serial.throughput_tps,
            wide.throughput_tps
        );
    }

    #[test]
    fn eventless_schedule_only_adds_transient_windows() {
        // Windowed collection without events must not perturb the run.
        let plain = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(2, 40)).run();
        let cfg = SimConfig {
            schedule: Schedule::new().window(5.0),
            ..quick(2, 40)
        };
        let mut windowed = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let transient = windowed
            .transient
            .take()
            .expect("windowing enables transient");
        assert_eq!(plain, windowed);
        assert!(!transient.windows.is_empty());
    }

    #[test]
    fn master_crash_promotes_a_slave() {
        // Kill the master mid-run: a slave is promoted once it has the
        // full writeset log, queued updates drain to it, and update
        // commits keep flowing for the rest of the run.
        let cfg = SimConfig {
            schedule: Schedule::new().crash(20.0, 0).window(2.0),
            ..quick(3, 41)
        };
        let a = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg.clone()).run();
        let t = a.transient.as_ref().expect("transient present");
        assert_eq!(t.events[0].event, "crash replica 0");
        assert!(a.update_commits > 0, "promoted slave serves updates");
        let tail_updates: u64 = t
            .windows
            .iter()
            .filter(|w| w.start >= 25.0)
            .map(|w| w.update_commits)
            .sum();
        assert!(
            tail_updates > 0,
            "updates must keep committing after the failover"
        );
        let b = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        assert_eq!(a, b, "failover runs must stay deterministic");
    }

    #[test]
    fn crashed_master_rejoins_as_slave() {
        let cfg = SimConfig {
            schedule: Schedule::new().crash(18.0, 0).join(28.0, 0).window(2.0),
            ..quick(2, 42)
        };
        let report = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(echoed, ["crash replica 0", "rejoin replica 0"]);
        assert!(report.update_commits > 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn certifier_events_are_ignored_in_single_master() {
        let cfg = SimConfig {
            schedule: Schedule::new()
                .certifier_down(20.0)
                .certifier_up(25.0)
                .window(5.0),
            ..quick(2, 43)
        };
        let report = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run();
        let t = report.transient.as_ref().expect("transient present");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(
            echoed,
            ["certifier down (ignored)", "certifier up (ignored)"]
        );
    }

    fn durable(mut cfg: SimConfig) -> SimConfig {
        cfg.durability = DurabilityConfig {
            enabled: true,
            ..DurabilityConfig::default()
        };
        cfg
    }

    #[test]
    fn relay_log_stays_bounded_under_steady_load() {
        // Pre-WsLog the relay log grew linearly with committed writesets;
        // vacuum-cadence truncation must keep the high-water mark well
        // below the total.
        let (report, probe) =
            SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), quick(3, 50)).run_probed();
        assert!(report.update_commits > 0);
        assert!(
            probe.ws_seq > 200,
            "need steady update load: {}",
            probe.ws_seq
        );
        assert!(
            (probe.ws_log_peak as u64) < probe.ws_seq / 2,
            "peak {} must stay bounded vs {} total",
            probe.ws_log_peak,
            probe.ws_seq
        );
        assert!((probe.ws_log_len as u64) <= probe.ws_log_peak as u64);
    }

    #[test]
    fn durable_crash_rejoin_recovers_from_the_redo_log() {
        // With durability on, the crashed ex-master rebuilds from its
        // checkpoint + WAL and replays only the relay tail — never a full
        // state transfer while the log is unbounded.
        let cfg = SimConfig {
            schedule: Schedule::new().crash(18.0, 0).join(28.0, 0).window(2.0),
            ..durable(quick(2, 42))
        };
        let (a, pa) =
            SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg.clone()).run_probed();
        assert_eq!(
            pa.state_transfers, 0,
            "unbounded log: rejoin must replay, not transfer"
        );
        let t = a.transient.as_ref().expect("transient present");
        let echoed: Vec<&str> = t.events.iter().map(|e| e.event.as_str()).collect();
        assert_eq!(echoed, ["crash replica 0", "rejoin replica 0"]);
        assert!(a.update_commits > 0);
        let (b, _) = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run_probed();
        assert_eq!(a, b, "durable recovery must stay deterministic");
    }

    #[test]
    fn tiny_retention_forces_a_checkpoint_state_transfer() {
        // A 4-entry retention cap guarantees the relay log outruns a
        // 20-second-down slave, exercising the fallback path.
        let cfg = SimConfig {
            schedule: Schedule::new().crash(15.0, 1).join(35.0, 1).window(2.0),
            durability: DurabilityConfig {
                enabled: true,
                log_retention: 4,
                ..DurabilityConfig::default()
            },
            ..quick(3, 51)
        };
        let (report, probe) =
            SingleMasterSim::new(tpcw::mix(tpcw::Mix::Shopping), cfg).run_probed();
        assert!(
            probe.state_transfers >= 1,
            "capped log must force a state transfer"
        );
        assert!(report.update_commits > 0);
        assert!(report.throughput_tps > 0.0);
    }

    #[test]
    fn group_commit_surcharge_taxes_update_throughput() {
        // An exaggerated fsync cost with no batching (group 1) must show
        // up as lost throughput on an update-heavy mix.
        let spec = tpcw::mix(tpcw::Mix::Ordering);
        let base = SingleMasterSim::new(spec.clone(), quick(2, 52)).run();
        let cfg = SimConfig {
            durability: DurabilityConfig {
                enabled: true,
                group_commit: 1,
                fsync_disk: 0.05,
                log_retention: 0,
            },
            ..quick(2, 52)
        };
        let taxed = SingleMasterSim::new(spec, cfg).run();
        assert!(
            taxed.throughput_tps < 0.9 * base.throughput_tps,
            "taxed {} vs base {}",
            taxed.throughput_tps,
            base.throughput_tps
        );
    }

    #[test]
    fn sm_and_mm_similar_at_low_update_fractions() {
        // With few updates both designs are read-limited and should land
        // near each other.
        let sm = SingleMasterSim::new(tpcw::mix(tpcw::Mix::Browsing), quick(4, 7))
            .run()
            .throughput_tps;
        let mm = crate::mm::MultiMasterSim::new(tpcw::mix(tpcw::Mix::Browsing), quick(4, 7))
            .run()
            .throughput_tps;
        let rel = (sm - mm).abs() / mm;
        assert!(rel < 0.15, "sm={sm} mm={mm}");
    }
}
