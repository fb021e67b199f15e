//! The shared cluster simulation core.
//!
//! The paper's two prototypes and the standalone profiling target share
//! one structure: closed-loop clients, a load balancer, and nodes that
//! each have a CPU (processor sharing), a disk (FCFS) and a real
//! snapshot-isolation engine. They differ in one thing: where an update
//! executes and certifies. This module holds everything they share —
//! the [`Node`] and [`World`] state, the typed event vocabulary [`Ev`],
//! the run skeleton, admission control, responses, retries, failover,
//! writeset propagation and in-order retirement, and schedule injection —
//! and each design supplies a small [`Policy`]:
//!
//! - **routing**: multi-master sends every transaction to the least
//!   loaded live node; single-master sends updates to the master (or
//!   queues them while no master is live);
//! - **commit**: multi-master certifies remotely (a certifier round
//!   trip); single-master and standalone commit locally under the node's
//!   own first-committer-wins check ([`commit_locally`]);
//! - **hooks**: post-apply, vacuum, crash and rejoin handling, the RNG
//!   salt and the utilization labels.
//!
//! Policies are statically dispatched: every function here is generic
//! over the policy and the engine stores the events inline, so the
//! steady-state loop performs no per-event allocation.

use std::collections::{BTreeMap, VecDeque};

use replipred_core::ScheduleEvent;
use replipred_sidb::{Database, TxnId, WriteSet};
use replipred_sim::engine::{Engine, Event};
use replipred_sim::resource::{Fcfs, Ps, ServiceToken};
use replipred_sim::{Rng, SimTime};
use replipred_workload::client::{ClientId, ClientPool};
use replipred_workload::spec::{TxnTemplate, WorkloadSpec};

use crate::config::SimConfig;
use crate::durable::NodeDurability;
use crate::metrics::{Metrics, RunReport};
use crate::transient::TransientCollector;

/// Retry backstop (the paper's RTEs retry indefinitely).
const MAX_RETRIES: u32 = 1000;

/// The engine of a cluster simulation under policy `P`.
pub(crate) type Eng<P> = Engine<World<P>, Ev<P>>;

/// A transaction waiting for an admission slot or a live node:
/// `(client, template, dispatch time)`.
pub(crate) type Waiter = (ClientId, TxnTemplate, f64);

/// Node liveness for fault injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeState {
    /// Serving transactions and applying propagated writesets.
    Up,
    /// Crashed: serves nothing, receives nothing.
    Down,
    /// Rejoined and replaying missed writesets; takes no load yet.
    CatchingUp,
}

/// One database node with its hardware.
pub(crate) struct Node<P: Policy> {
    pub db: Database,
    pub cpu: Ps<World<P>, Ev<P>>,
    pub disk: Fcfs<World<P>, Ev<P>>,
    pub state: NodeState,
    /// Incremented at every crash. In-flight work stamped with an older
    /// epoch is stale — it must not complete even if the node has
    /// already rejoined by the time its event fires.
    pub epoch: u64,
    /// Transactions routed here and not yet answered (load-balancer
    /// signal).
    pub inflight: usize,
    /// Next writeset sequence number to retire into the local database.
    /// Writesets consume resources concurrently but are *applied*
    /// strictly in sequence (out-of-order completion, in-order retire).
    pub apply_next: u64,
    /// Writesets whose resource phase finished, keyed by sequence,
    /// awaiting their turn.
    pub apply_ready: BTreeMap<u64, WriteSet>,
    /// Transactions currently executing (holding an admission slot).
    pub executing: usize,
    /// Arrivals waiting for an admission slot (middleware connection
    /// pool).
    pub admission: VecDeque<Waiter>,
    /// Checkpoint + redo log when the design keeps one and durability is
    /// enabled. A crash freezes it, less the unsealed group commit;
    /// rejoin rebuilds `db` from it.
    pub durable: Option<NodeDurability>,
}

/// The simulated world: nodes, clients, measurement, and the design's
/// own state.
pub(crate) struct World<P: Policy> {
    pub nodes: Vec<Node<P>>,
    /// Design-specific state (certifier, master, relay log, filter).
    pub design: P,
    /// Clients and their compiled statement plan (`pool.plan()`).
    pub pool: ClientPool,
    pub metrics: Metrics,
    pub measuring: bool,
    /// Demand sampler for writeset applications.
    pub rng: Rng,
    pub retries_exhausted: u64,
    pub lb_delay: f64,
    pub mpl: usize,
    /// Vacuum interval, seconds (0 disables).
    pub vacuum_interval: f64,
    /// End of the simulated horizon (no vacuums past it).
    pub end_time: f64,
    /// Transactions with no live node to run on, drained on rejoin.
    pub stranded: VecDeque<Waiter>,
    /// The configured base client population (ramp factors are relative
    /// to this).
    pub base_clients: usize,
    /// Windowed transient metrics; `None` unless a schedule is active.
    pub transient: Option<TransientCollector>,
    /// Amortized group-commit disk surcharge per logged commit
    /// (`DurabilityConfig::log_disk_demand`; 0 with durability off).
    pub log_disk: f64,
}

/// One in-flight transaction attempt moving through the CPU→disk phases
/// of its node.
pub(crate) struct Attempt {
    pub client: ClientId,
    pub node: usize,
    pub txn: TxnId,
    pub template: TxnTemplate,
    pub started: f64,
    pub attempt: u32,
    /// The node crash epoch the attempt started under.
    pub epoch: u64,
}

/// A committed writeset consuming its `ws` demands on a remote node.
pub(crate) struct WsApply {
    node: usize,
    seq: u64,
    writeset: WriteSet,
    /// Disk demand, sampled together with the CPU demand at propagation
    /// time (keeps the RNG draw order independent of resource contention).
    ws_disk: f64,
}

/// The typed event vocabulary shared by every design.
pub(crate) enum Ev<P: Policy> {
    /// A client finished thinking; the load balancer takes over.
    Think(ClientId),
    /// The LAN delay elapsed: sample, route and admit.
    Dispatch(ClientId),
    /// An attempt finished its CPU phase; the disk phase follows.
    CpuDone(Attempt),
    /// An attempt finished its disk phase; commit or certify.
    DiskDone(Attempt),
    /// A propagated writeset finished its CPU phase on a remote node.
    WsCpuDone(WsApply),
    /// A propagated writeset finished its disk phase; retire in order.
    WsDiskDone(WsApply),
    /// End of warm-up: discard all measurements.
    Warmup,
    /// Periodic version GC on every live node.
    Vacuum,
    /// An injected schedule event (crash, rejoin, outage, ramp).
    Inject(ScheduleEvent),
    /// A rejoining node finished one round of catch-up.
    CatchupDone(usize),
    /// A design-specific event (multi-master certification).
    Design(P::Event),
    /// Internal PS completion for `nodes[i].cpu`.
    CpuFired(usize),
    /// Internal FCFS completion for `nodes[i].disk`.
    DiskFired(usize, ServiceToken),
}

/// What distinguishes one replication design from another.
pub(crate) trait Policy: Sized + 'static {
    /// Design-specific events, fired through [`Policy::fire`].
    type Event: 'static;
    /// Salt XORed into the run seed for the writeset-demand RNG.
    const RNG_SALT: u64;
    /// Whether replica crash/rejoin events apply.
    const FAULTS: bool = true;
    /// Whether clients reach the nodes through the load balancer's LAN
    /// hop (an extra `Dispatch` event after `lb_delay`).
    const LB_HOP: bool = true;
    /// Whether nodes keep a checkpoint + redo log when durability is on.
    const DURABLE: bool = false;

    /// Called once per freshly seeded node; returns its first
    /// `apply_next`.
    fn seeded(&mut self, db: &mut Database) -> u64;

    /// Samples a client's next transaction.
    fn next_transaction(w: &mut World<Self>, client: ClientId) -> TxnTemplate {
        w.pool.next_transaction(client)
    }

    /// Routes an update transaction (default: like a read).
    fn route_update(engine: &mut Eng<Self>, client: ClientId, template: TxnTemplate, started: f64) {
        route_any(engine, client, template, started);
    }

    /// Commits (or certifies) an update whose execution finished on a
    /// live node.
    fn commit_update(engine: &mut Eng<Self>, a: Attempt);

    /// Fires a design-specific event.
    fn fire(engine: &mut Eng<Self>, ev: Self::Event);

    /// Runs after writesets retired on a node.
    fn applied(_engine: &mut Eng<Self>) {}

    /// Vacuum-cadence work after every live node vacuumed.
    fn vacuumed(_w: &mut World<Self>) {}

    /// Runs after crashed node `i`'s waiters were re-routed.
    fn crashed(_engine: &mut Eng<Self>, _i: usize) {}

    /// Starts node `i`'s rejoin (its state is already `CatchingUp`).
    fn rejoin(engine: &mut Eng<Self>, i: usize) {
        Self::catchup(engine, i);
    }

    /// One round of rejoin catch-up for node `i`.
    fn catchup(_engine: &mut Eng<Self>, _i: usize) {}

    /// Applies a certifier outage (`up == false`) or restart; returns
    /// whether the event changed anything.
    fn certifier(_engine: &mut Eng<Self>, _up: bool) -> bool {
        false
    }

    /// Utilization label of node `i` at the end of the run.
    fn label(w: &World<Self>, i: usize) -> String;
}

impl<P: Policy> Event<World<P>> for Ev<P> {
    fn fire(self, engine: &mut Eng<P>) {
        match self {
            Ev::Think(client) => {
                if P::LB_HOP {
                    let delay = engine.world().lb_delay;
                    engine.schedule_event_in(delay, Ev::Dispatch(client));
                } else {
                    dispatch(engine, client);
                }
            }
            Ev::Dispatch(client) => dispatch(engine, client),
            Ev::CpuDone(a) => {
                if !is_live(engine.world(), &a) {
                    abandon_attempt(engine, a);
                    return;
                }
                // Update attempts pay the redo-log group-commit share on
                // top of their sampled disk demand (zero with durability
                // off — the surcharge never touches the RNG stream).
                let log_disk = if a.template.is_update {
                    engine.world().log_disk
                } else {
                    0.0
                };
                let node = a.node;
                let disk_demand = a.template.disk_demand + log_disk;
                Fcfs::submit_event(
                    engine,
                    move |w: &mut World<P>| &mut w.nodes[node].disk,
                    disk_demand,
                    Ev::DiskDone(a),
                    move |t| Ev::DiskFired(node, t),
                );
            }
            Ev::DiskDone(a) => {
                if !is_live(engine.world(), &a) {
                    abandon_attempt(engine, a);
                } else if a.template.is_update {
                    P::commit_update(engine, a);
                } else {
                    commit_read(engine, a);
                }
            }
            Ev::WsCpuDone(ws) => {
                let node = ws.node;
                if engine.world().nodes[node].state != NodeState::Up {
                    // The crashed/rejoining target recovers this writeset
                    // from the log instead.
                    return;
                }
                let ws_disk = ws.ws_disk;
                Fcfs::submit_event(
                    engine,
                    move |w: &mut World<P>| &mut w.nodes[node].disk,
                    ws_disk,
                    Ev::WsDiskDone(ws),
                    move |t| Ev::DiskFired(node, t),
                );
            }
            Ev::WsDiskDone(ws) => {
                if engine.world().nodes[ws.node].state != NodeState::Up {
                    return;
                }
                let w = engine.world_mut();
                if w.measuring {
                    w.metrics.writesets_applied += 1;
                    w.metrics.writeset_bytes += ws.writeset.wire_size() as u64;
                }
                mark_ready(engine, ws.node, ws.seq, ws.writeset);
            }
            Ev::Warmup => {
                let now = engine.now().as_secs();
                let w = engine.world_mut();
                w.metrics.reset();
                for node in &mut w.nodes {
                    node.db.reset_stats();
                    // Discard warm-up statement-log totals so a capture
                    // covers exactly the measurement window.
                    node.db.reset_log();
                    node.cpu.stats.reset(now);
                    node.disk.stats.reset(now);
                }
                w.measuring = true;
            }
            Ev::Vacuum => {
                let w = engine.world_mut();
                for node in &mut w.nodes {
                    // A dead node's state is frozen as-is.
                    if node.state != NodeState::Down {
                        node.db.vacuum();
                    }
                }
                P::vacuumed(w);
                let interval = w.vacuum_interval;
                if engine.now().as_secs() + interval < engine.world().end_time {
                    engine.schedule_event_in(interval, Ev::Vacuum);
                }
            }
            Ev::Inject(ev) => inject(engine, ev),
            Ev::CatchupDone(i) => P::catchup(engine, i),
            Ev::Design(ev) => P::fire(engine, ev),
            Ev::CpuFired(i) => Ps::on_fired(
                engine,
                move |w: &mut World<P>| &mut w.nodes[i].cpu,
                move || Ev::CpuFired(i),
            ),
            Ev::DiskFired(i, token) => Fcfs::on_fired(
                engine,
                move |w: &mut World<P>| &mut w.nodes[i].disk,
                token,
                move |t| Ev::DiskFired(i, t),
            ),
        }
    }
}

/// Runs one simulation of `n` nodes and `clients` closed-loop clients
/// under `design`: seed the nodes, build the client pool, schedule
/// warm-up, vacuum and the injected events, run to the horizon, and
/// report. Returns the final world too (for probes and the standalone
/// statement log).
pub(crate) fn run<P: Policy>(
    spec: &WorkloadSpec,
    cfg: &SimConfig,
    n: usize,
    clients: usize,
    mut design: P,
) -> (RunReport, World<P>) {
    let mut nodes = Vec::with_capacity(n);
    let mut plan = None;
    for _ in 0..n {
        let mut db = Database::new();
        let p = spec
            .install(&mut db, cfg.seed_scale)
            .expect("workload installs on a fresh database");
        // Identical schema creation order means identical plans; the
        // propagated writesets rely on shared table ids.
        if let Some(prev) = &plan {
            debug_assert!(*prev == p, "node plans diverged");
        }
        plan = Some(p);
        let apply_next = design.seeded(&mut db);
        // The initial checkpoint images the freshly seeded database
        // (relay sequence 0): a node crashing before the first vacuum
        // recovers from it plus its redo log.
        let durable = (P::DURABLE && cfg.durability.enabled)
            .then(|| NodeDurability::new(&db, 0, cfg.durability.group_commit.max(1)));
        nodes.push(Node {
            db,
            cpu: Ps::new(1.0),
            disk: Fcfs::new(1),
            state: NodeState::Up,
            epoch: 0,
            inflight: 0,
            apply_next,
            apply_ready: BTreeMap::new(),
            executing: 0,
            admission: VecDeque::new(),
            durable,
        });
    }
    let plan = plan.expect("at least one node");
    let schedule = &cfg.schedule;
    // Ramps never invent clients mid-run: the pool is sized for the
    // largest requested population up front, extra streams parked.
    let capacity = (schedule.max_clients_factor() * clients as f64).ceil() as usize;
    let transient = schedule
        .enabled()
        .then(|| TransientCollector::new(schedule, cfg.warmup, cfg.end_time()));
    let world = World {
        nodes,
        design,
        pool: ClientPool::with_capacity(plan, clients, capacity, cfg.seed),
        metrics: Metrics::default(),
        measuring: false,
        rng: Rng::seed_from_u64(cfg.seed ^ P::RNG_SALT),
        retries_exhausted: 0,
        lb_delay: cfg.lb_delay,
        mpl: cfg.mpl.max(1),
        vacuum_interval: cfg.vacuum_interval,
        end_time: cfg.end_time(),
        stranded: VecDeque::new(),
        base_clients: clients,
        transient,
        log_disk: cfg.durability.log_disk_demand(),
    };
    let mut engine: Eng<P> = Engine::new(world);
    for i in 0..clients {
        client_cycle(&mut engine, ClientId(i));
    }
    engine.schedule_event_at(SimTime::from_secs(cfg.warmup), Ev::Warmup);
    if cfg.vacuum_interval > 0.0 {
        engine.schedule_event_in(cfg.vacuum_interval, Ev::Vacuum);
    }
    for te in schedule.sorted_events() {
        engine.schedule_event_at(SimTime::from_secs(te.at), Ev::Inject(te.event));
    }
    let end = SimTime::from_secs(cfg.end_time());
    engine.run_until(end);
    let end_s = end.as_secs();
    let mut w = engine.into_world();
    let utils: Vec<(String, f64, f64)> = w
        .nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            (
                P::label(&w, i),
                node.cpu.stats.busy.mean_at(end_s),
                node.disk.stats.busy.mean_at(end_s),
            )
        })
        .collect();
    let mut report =
        RunReport::from_metrics(&spec.name, n, clients, cfg.duration, &w.metrics, &utils);
    report.transient = w.transient.take().map(TransientCollector::finalize);
    (report, w)
}

/// Starts a client's think time.
fn client_cycle<P: Policy>(engine: &mut Eng<P>, client: ClientId) {
    let think = engine.world_mut().pool.next_think(client);
    engine.schedule_event_in(think, Ev::Think(client));
}

/// Least-loaded live node, if any.
fn pick_live<P: Policy>(w: &World<P>) -> Option<usize> {
    w.nodes
        .iter()
        .enumerate()
        .filter(|(_, node)| node.state == NodeState::Up)
        .min_by_key(|(_, node)| node.inflight)
        .map(|(i, _)| i)
}

/// Whether an attempt's node is still the live incarnation it started on.
pub(crate) fn is_live<P: Policy>(w: &World<P>, a: &Attempt) -> bool {
    let node = &w.nodes[a.node];
    node.state == NodeState::Up && node.epoch == a.epoch
}

/// Load balancer: sample the client's next transaction and route it.
fn dispatch<P: Policy>(engine: &mut Eng<P>, client: ClientId) {
    // Population ramps: surplus clients go dormant between transactions.
    if engine.world_mut().pool.park_if_surplus(client) {
        return;
    }
    let template = P::next_transaction(engine.world_mut(), client);
    let started = engine.now().as_secs();
    route(engine, client, template, started);
}

/// Routes a transaction by kind: updates through the policy, reads to
/// the least loaded live node.
fn route<P: Policy>(engine: &mut Eng<P>, client: ClientId, template: TxnTemplate, started: f64) {
    if template.is_update {
        P::route_update(engine, client, template, started);
    } else {
        route_any(engine, client, template, started);
    }
}

/// Sends a transaction to the least loaded live node, or strands it
/// until one rejoins. A re-routed transaction keeps its original
/// dispatch time, so a disruption shows up in its response time.
pub(crate) fn route_any<P: Policy>(
    engine: &mut Eng<P>,
    client: ClientId,
    template: TxnTemplate,
    started: f64,
) {
    match pick_live(engine.world()) {
        Some(node) => admit(engine, client, node, template, started),
        None => engine
            .world_mut()
            .stranded
            .push_back((client, template, started)),
    }
}

/// Admission control (connection pool): at most `mpl` transactions
/// execute concurrently per node; excess arrivals wait without an open
/// snapshot. Counts the transaction against the node's load.
pub(crate) fn admit<P: Policy>(
    engine: &mut Eng<P>,
    client: ClientId,
    node: usize,
    template: TxnTemplate,
    started: f64,
) {
    let admitted = {
        let w = engine.world_mut();
        let mpl = w.mpl;
        let n = &mut w.nodes[node];
        n.inflight += 1;
        if n.executing < mpl {
            n.executing += 1;
            true
        } else {
            n.admission.push_back((client, template.clone(), started));
            false
        }
    };
    if admitted {
        start_attempt(engine, client, node, template, started, 0);
    }
}

/// Releases an admission slot, immediately admitting the next waiter (the
/// slot transfers without touching the counter).
fn release<P: Policy>(engine: &mut Eng<P>, node: usize) {
    let next = {
        let n = &mut engine.world_mut().nodes[node];
        let next = n.admission.pop_front();
        if next.is_none() {
            n.executing -= 1;
        }
        next
    };
    if let Some((client, template, started)) = next {
        start_attempt(engine, client, node, template, started, 0);
    }
}

/// Opens the attempt's snapshot and submits its CPU phase. The snapshot
/// is the node's latest *local* version at execution start (GSI:
/// possibly stale, never blocking); the conflict window spans execution
/// plus certification.
fn start_attempt<P: Policy>(
    engine: &mut Eng<P>,
    client: ClientId,
    node: usize,
    template: TxnTemplate,
    started: f64,
    attempt: u32,
) {
    let (txn, epoch) = {
        let now = engine.now().as_secs();
        let n = &mut engine.world_mut().nodes[node];
        n.db.set_time(now);
        (n.db.begin(), n.epoch)
    };
    let cpu_demand = template.cpu_demand;
    let attempt = Attempt {
        client,
        node,
        txn,
        template,
        started,
        attempt,
        epoch,
    };
    Ps::submit_event(
        engine,
        move |w: &mut World<P>| &mut w.nodes[node].cpu,
        cpu_demand,
        Ev::CpuDone(attempt),
        move || Ev::CpuFired(node),
    );
}

/// Drops an in-flight attempt whose node died mid-execution and re-routes
/// its client. The dead node's open snapshot is aborted so a later
/// rejoin does not pin old versions.
fn abandon_attempt<P: Policy>(engine: &mut Eng<P>, a: Attempt) {
    let _ = engine.world_mut().nodes[a.node].db.abort(a.txn);
    route(engine, a.client, a.template, a.started);
}

/// Read-only transactions commit locally, never certified (GSI).
fn commit_read<P: Policy>(engine: &mut Eng<P>, a: Attempt) {
    let now = engine.now().as_secs();
    let w = engine.world_mut();
    let db = &mut w.nodes[a.node].db;
    db.set_time(now);
    w.pool
        .plan()
        .execute(db, a.txn, &a.template)
        .expect("workload references seeded tables");
    db.commit(a.txn)
        .expect("read-only transactions always commit");
    respond(engine, a.client, a.node, a.started, Some(false));
}

/// Executes and commits an update under the node's own first-committer-
/// wins check. On commit, `relay` receives the node, local version and
/// writeset before the client is answered; on a conflict the attempt
/// retries.
pub(crate) fn commit_locally<P: Policy>(
    engine: &mut Eng<P>,
    a: Attempt,
    relay: impl FnOnce(&mut Eng<P>, usize, u64, WriteSet),
) {
    let now = engine.now().as_secs();
    let outcome = {
        let w = engine.world_mut();
        let db = &mut w.nodes[a.node].db;
        db.set_time(now);
        w.pool
            .plan()
            .execute(db, a.txn, &a.template)
            .expect("workload references seeded tables");
        db.commit(a.txn)
            .map(|info| (info.commit_seq, info.writeset))
    };
    match outcome {
        Ok((version, writeset)) => {
            relay(engine, a.node, version, writeset);
            respond(engine, a.client, a.node, a.started, Some(true));
        }
        Err(e) if e.is_conflict() => retry(engine, a),
        Err(e) => panic!("unexpected engine error: {e}"),
    }
}

/// Counts a conflict abort and retries the transaction immediately on the
/// same node with fresh demand samples (paper Section 6.1). Past
/// [`MAX_RETRIES`] the transaction is abandoned: it did not commit, so it
/// counts as neither a commit nor a response sample.
pub(crate) fn retry<P: Policy>(engine: &mut Eng<P>, a: Attempt) {
    let now = engine.now().as_secs();
    let w = engine.world_mut();
    if w.measuring {
        w.metrics.conflict_aborts += 1;
        if let Some(tc) = &mut w.transient {
            tc.abort(now);
        }
    }
    if a.attempt < MAX_RETRIES {
        let template = w.pool.resample_demands(a.client, &a.template);
        start_attempt(engine, a.client, a.node, template, a.started, a.attempt + 1);
    } else {
        w.retries_exhausted += 1;
        respond(engine, a.client, a.node, a.started, None);
    }
}

/// Ends a transaction on `node`: frees its admission slot and load, and
/// returns the client to think state. `committed` is `Some(is_update)`
/// for a commit, which records the response samples; `None` for an
/// abandoned transaction.
pub(crate) fn respond<P: Policy>(
    engine: &mut Eng<P>,
    client: ClientId,
    node: usize,
    started: f64,
    committed: Option<bool>,
) {
    let now = engine.now().as_secs();
    release(engine, node);
    let w = engine.world_mut();
    w.nodes[node].inflight -= 1;
    if let (true, Some(update)) = (w.measuring, committed) {
        if update {
            w.metrics.update_commits += 1;
            w.metrics.update_response.record(now - started);
        } else {
            w.metrics.read_commits += 1;
            w.metrics.read_response.record(now - started);
        }
        w.metrics.response.record(now - started);
        if let Some(tc) = &mut w.transient {
            tc.commit(now, now - started, update);
        }
    }
    client_cycle(engine, client);
}

/// Sends a committed writeset to every live node but its origin.
/// Crashed or catching-up nodes are skipped — they recover the writeset
/// from the log when they rejoin.
pub(crate) fn broadcast<P: Policy>(
    engine: &mut Eng<P>,
    origin: usize,
    seq: u64,
    writeset: &WriteSet,
) {
    for node in 0..engine.world().nodes.len() {
        if node != origin && engine.world().nodes[node].state == NodeState::Up {
            propagate(engine, node, seq, writeset.clone());
        }
    }
}

/// Consumes the sampled `ws` resource demands on a remote node, then
/// queues the writeset for in-order retirement.
fn propagate<P: Policy>(engine: &mut Eng<P>, node: usize, seq: u64, writeset: WriteSet) {
    let (ws_cpu, ws_disk) = {
        let w = engine.world_mut();
        let (mean_cpu, mean_disk) = {
            let spec = w.pool.spec();
            (spec.ws_cpu, spec.ws_disk)
        };
        // The log surcharge rides on top of the sampled demand, after
        // both draws, so enabling durability never shifts the RNG stream.
        let drawn = (w.rng.exp(mean_cpu), w.rng.exp(mean_disk));
        (drawn.0, drawn.1 + w.log_disk)
    };
    Ps::submit_event(
        engine,
        move |w: &mut World<P>| &mut w.nodes[node].cpu,
        ws_cpu,
        Ev::WsCpuDone(WsApply {
            node,
            seq,
            writeset,
            ws_disk,
        }),
        move || Ev::CpuFired(node),
    );
}

/// Retires ready writesets into the node's database in strict sequence,
/// so its state is always a prefix of the global log, and logs each one
/// when the node is durable.
///
/// Sequences below `apply_next` are stale duplicates (a rejoined node
/// already replayed them from the log) and are discarded.
pub(crate) fn mark_ready<P: Policy>(
    engine: &mut Eng<P>,
    node: usize,
    seq: u64,
    writeset: WriteSet,
) {
    let n = &mut engine.world_mut().nodes[node];
    if seq < n.apply_next {
        return;
    }
    n.apply_ready.insert(seq, writeset);
    while let Some(entry) = n.apply_ready.first_entry() {
        if *entry.key() < n.apply_next {
            entry.remove();
            continue;
        }
        if *entry.key() != n.apply_next {
            break;
        }
        let ws = entry.remove();
        retire(n, &ws);
    }
    P::applied(engine);
}

/// Applies the node's next writeset in sequence, logging it when the
/// node is durable.
pub(crate) fn retire<P: Policy>(n: &mut Node<P>, ws: &WriteSet) {
    let version =
        n.db.apply_writeset(ws)
            .expect("writeset references seeded tables");
    if let Some(d) = n.durable.as_mut() {
        d.log(n.apply_next, version, ws);
    }
    n.apply_next += 1;
}

/// Restarts transactions that stranded while no node was live.
pub(crate) fn drain_stranded<P: Policy>(engine: &mut Eng<P>) {
    while let Some((client, template, started)) = {
        let w = engine.world_mut();
        if pick_live(w).is_some() {
            w.stranded.pop_front()
        } else {
            None
        }
    } {
        route_any(engine, client, template, started);
    }
}

// ---------------------------------------------------------------------
// Schedule injection: crash / rejoin / certifier outage / ramps.
// ---------------------------------------------------------------------

/// Applies one injected schedule event and echoes it into the transient
/// report. Events that cannot apply (an unknown node index — legal when
/// one schedule drives a sweep over several cluster sizes — a state they
/// would not change, or an event the design has no use for) are
/// acknowledged as ignored.
fn inject<P: Policy>(engine: &mut Eng<P>, ev: ScheduleEvent) {
    let now = engine.now().as_secs();
    let in_state = |engine: &Eng<P>, i: usize, state: NodeState| {
        P::FAULTS
            && engine
                .world()
                .nodes
                .get(i)
                .is_some_and(|n| n.state == state)
    };
    let applied = match ev {
        ScheduleEvent::ReplicaCrash(i) => {
            let applies = in_state(engine, i, NodeState::Up);
            if applies {
                crash(engine, i);
            }
            applies
        }
        ScheduleEvent::ReplicaJoin(i) => {
            let applies = in_state(engine, i, NodeState::Down);
            if applies {
                engine.world_mut().nodes[i].state = NodeState::CatchingUp;
                P::rejoin(engine, i);
            }
            applies
        }
        ScheduleEvent::CertifierDown => P::certifier(engine, false),
        ScheduleEvent::CertifierUp => P::certifier(engine, true),
        ScheduleEvent::Clients(factor) => {
            set_population(engine, factor);
            true
        }
    };
    if let Some(tc) = &mut engine.world_mut().transient {
        let description = if applied {
            ev.to_string()
        } else {
            format!("{ev} (ignored)")
        };
        tc.event(now, description);
    }
}

/// Crashes node `i`: it stops serving, its queued arrivals re-route to
/// the survivors, and pending writeset applications are dropped (they
/// are recovered from the log on rejoin), as is a durable node's
/// unsealed group commit. In-flight attempts are intercepted as their
/// events fire.
fn crash<P: Policy>(engine: &mut Eng<P>, i: usize) {
    let waiting = {
        let n = &mut engine.world_mut().nodes[i];
        n.state = NodeState::Down;
        n.epoch += 1;
        n.executing = 0;
        n.inflight = 0;
        n.apply_ready.clear();
        if let Some(d) = n.durable.as_mut() {
            d.crash();
        }
        std::mem::take(&mut n.admission)
    };
    for (client, template, started) in waiting {
        route(engine, client, template, started);
    }
    P::crashed(engine, i);
}

/// Applies a client-population ramp: the target moves to
/// `factor × base`, parked clients below it restart their closed loop,
/// surplus clients park at their next dispatch.
fn set_population<P: Policy>(engine: &mut Eng<P>, factor: f64) {
    let woken = {
        let w = engine.world_mut();
        let target = (factor * w.base_clients as f64).round() as usize;
        w.pool.set_active_target(target)
    };
    for client in woken {
        client_cycle(engine, client);
    }
}
