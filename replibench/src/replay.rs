//! The traced replay of one simulated cell.
//!
//! The simulators expose only `run()`, so the per-layer numbers come
//! from replaying each cell's operation stream from the benchmark's own
//! code: the same public functions, on the same spec, seed and replica
//! count, with call counts sized from the counts the simulated run
//! reports (commits, conflict aborts, writesets applied). Vacuums and
//! checkpoints follow the vacuum cadence over the measurement window,
//! and every rejoin of a crashed durable node is one recovery.
//!
//! The stream is laid out in virtual time: the `R + U` committed
//! transactions evenly over the measurement window (updates spread
//! evenly among reads), the `A` conflict aborts evenly among the
//! updates, and the `W` remote writeset applications in commit order
//! (any shortfall against full propagation falls on the last updates,
//! any surplus re-applies the last writeset). Schedule events and
//! vacuum ticks fire at their own times, events first on a tie.

use std::collections::BTreeMap;

use replipred::model::{Design, ScheduleEvent};
use replipred::repl::certifier::Certification;
use replipred::repl::{Certifier, NodeDurability, RunReport, SimConfig, SimulatorRegistry};
use replipred::sidb::{Database, TxnId, WalRecord, WalWriter, WriteSet};
use replipred::workload::client::{ClientId, ClientPool};
use replipred::workload::{TxnTemplate, WorkloadSpec};

use crate::trace::Tracer;
use crate::workload::Workload;

/// Install one replica: create the schema, compile, seed (the body of
/// `WorkloadSpec::install`).
pub const INSTALL: &str = "workload.install";
/// `CompiledWorkload::seed`, inside [`INSTALL`].
pub const SEED_ROWS: &str = "workload.seed_rows";
/// `ClientPool::next_transaction` (`CompiledWorkload::sample`).
pub const SAMPLE: &str = "workload.sample";
/// `CompiledWorkload::execute`.
pub const EXECUTE: &str = "workload.execute";
/// `Database::commit`.
pub const COMMIT: &str = "sidb.commit";
/// `Database::writeset_of`.
pub const WRITESET: &str = "sidb.writeset";
/// `Database::apply_writeset`.
pub const APPLY: &str = "sidb.apply";
/// `Database::vacuum`.
pub const VACUUM: &str = "sidb.vacuum";
/// `Database::checkpoint`, one image per checkpoint tick.
pub const CHECKPOINT: &str = "sidb.checkpoint";
/// `Certifier::certify`.
pub const CERTIFY: &str = "repl.certify";
/// `NodeDurability::log`.
pub const DURABLE_LOG: &str = "repl.durable_log";
/// `NodeDurability::new` and `NodeDurability::checkpoint`.
pub const DURABLE_CHECKPOINT: &str = "repl.durable_checkpoint";
/// `NodeDurability::recover` plus the relay catch-up that follows it.
pub const DURABLE_RECOVER: &str = "repl.durable_recover";
/// `Simulator::run` of the cell.
pub const RUN: &str = "repl.run";
/// `Profiler::profile`.
pub const PROFILE: &str = "profiler.profile";
/// `Predictor::curve` over n = 1..16.
pub const CURVE: &str = "core.curve";

/// Every timed layer, in report order.
pub const LAYERS: [&str; 16] = [
    INSTALL,
    SEED_ROWS,
    SAMPLE,
    EXECUTE,
    COMMIT,
    WRITESET,
    APPLY,
    VACUUM,
    CHECKPOINT,
    CERTIFY,
    DURABLE_LOG,
    DURABLE_CHECKPOINT,
    DURABLE_RECOVER,
    RUN,
    PROFILE,
    CURVE,
];

/// The layers that run once per committed transaction or abort, whose
/// replayed self time scales with the simulated horizon.
pub const PER_TXN_LAYERS: [&str; 10] = [
    SAMPLE,
    EXECUTE,
    COMMIT,
    WRITESET,
    APPLY,
    VACUUM,
    CHECKPOINT,
    CERTIFY,
    DURABLE_LOG,
    DURABLE_CHECKPOINT,
];

/// One simulated cell, configured exactly as `Scenario::run` configures
/// it.
#[derive(Debug, Clone)]
pub struct CellPlan {
    /// The replicated design.
    pub design: Design,
    /// The mechanistic workload.
    pub spec: WorkloadSpec,
    /// The cell's simulation config (replicas and seed set).
    pub cfg: SimConfig,
}

impl CellPlan {
    /// The cells of `w` at `seed`, in grid order.
    pub fn for_workload(w: Workload, seed: u64) -> Vec<CellPlan> {
        let spec = w.spec();
        let template = w.sim_config(seed);
        w.cells()
            .into_iter()
            .map(|cell| CellPlan {
                design: cell.design,
                spec: spec.clone(),
                cfg: SimConfig {
                    replicas: cell.replicas,
                    seed,
                    ..template.clone()
                },
            })
            .collect()
    }

    /// Runs the cell's simulator.
    pub fn simulate(&self) -> RunReport {
        self.design
            .simulator(self.spec.clone(), self.cfg.clone())
            .run()
    }

    fn durable(&self) -> bool {
        self.design == Design::SingleMaster && self.cfg.durability.enabled
    }

    /// Vacuum ticks inside the measurement window, with the number of
    /// live nodes at each.
    fn ticks(&self) -> Vec<(f64, usize)> {
        let cfg = &self.cfg;
        if cfg.vacuum_interval <= 0.0 {
            return Vec::new();
        }
        let count = (cfg.duration / cfg.vacuum_interval).floor() as usize;
        let events = self.events();
        (1..=count)
            .map(|k| {
                let t = cfg.warmup + k as f64 * cfg.vacuum_interval;
                let mut up = vec![true; cfg.replicas];
                for &(at, ev) in &events {
                    if at <= t {
                        apply_event(&mut up, ev);
                    }
                }
                (t, up.iter().filter(|&&u| u).count())
            })
            .collect()
    }

    /// Crash and join events on existing replicas, in time order.
    fn events(&self) -> Vec<(f64, Event)> {
        self.cfg
            .schedule
            .sorted_events()
            .into_iter()
            .filter_map(|te| match te.event {
                ScheduleEvent::ReplicaCrash(i) if i < self.cfg.replicas => {
                    Some((te.at, Event::Crash(i)))
                }
                ScheduleEvent::ReplicaJoin(i) if i < self.cfg.replicas => {
                    Some((te.at, Event::Join(i)))
                }
                _ => None,
            })
            .collect()
    }

    /// Rejoins of a crashed node.
    fn rejoins(&self) -> u64 {
        let mut up = vec![true; self.cfg.replicas];
        let mut joins = 0;
        for (_, ev) in self.events() {
            if let Event::Join(i) = ev {
                joins += u64::from(!up[i]);
            }
            apply_event(&mut up, ev);
        }
        joins
    }

    /// The call count of every layer the replay of this cell must make,
    /// derived from the simulated run's report.
    pub fn derived_calls(&self, report: &RunReport) -> BTreeMap<&'static str, u64> {
        let n = self.cfg.replicas as u64;
        let (r, u, a, w) = (
            report.read_commits,
            report.update_commits,
            report.conflict_aborts,
            report.writesets_applied,
        );
        let ticks = self.ticks();
        let live_ticks: u64 = ticks.iter().map(|&(_, live)| live as u64).sum();
        let mm = self.design == Design::MultiMaster;
        let durable = self.durable();
        let mut calls = BTreeMap::new();
        calls.insert(INSTALL, n);
        calls.insert(SEED_ROWS, n);
        calls.insert(SAMPLE, r + u);
        calls.insert(EXECUTE, r + u + a);
        calls.insert(COMMIT, if mm { r } else { r + u + a });
        calls.insert(WRITESET, if mm { u + a } else { 0 });
        calls.insert(CERTIFY, if mm { u + a } else { 0 });
        calls.insert(APPLY, if mm { w + u } else { w });
        calls.insert(VACUUM, live_ticks);
        calls.insert(CHECKPOINT, if durable { ticks.len() as u64 } else { 0 });
        calls.insert(DURABLE_LOG, if durable { u + w } else { 0 });
        calls.insert(DURABLE_CHECKPOINT, if durable { n + live_ticks } else { 0 });
        calls.insert(DURABLE_RECOVER, if durable { self.rejoins() } else { 0 });
        calls
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Crash(usize),
    Join(usize),
}

fn apply_event(up: &mut [bool], ev: Event) {
    match ev {
        Event::Crash(i) => up[i] = false,
        Event::Join(i) => up[i] = true,
    }
}

/// Counts the replay gathers besides its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Row versions reclaimed by vacuums.
    pub reclaimed: u64,
    /// Bytes of the encoded checkpoint images.
    pub checkpoint_bytes: u64,
    /// Encoded WAL bytes of the master's logged commits.
    pub wal_bytes: u64,
    /// Commits in those WAL bytes.
    pub wal_commits: u64,
}

/// One replica of the replay.
struct Node {
    db: Database,
    up: bool,
    durable: Option<NodeDurability>,
    /// Global sequence of the last writeset this node applied.
    applied: u64,
    /// Global commit sequence of each record in this node's redo log,
    /// indexed by the node's own relay sequence minus one.
    logged: Vec<u64>,
}

impl Node {
    /// Records that this node applied the commit at global sequence
    /// `global` (local `version`), logging it when durable.
    fn record_apply(&mut self, tracer: &mut Tracer, global: u64, version: u64, ws: &WriteSet) {
        self.applied = global;
        if let Some(d) = self.durable.as_mut() {
            self.logged.push(global);
            let relay = self.logged.len() as u64;
            tracer.span(DURABLE_LOG, || d.log(relay, version, ws));
        }
    }
}

/// The replay state of one cell.
struct Replay<'a> {
    plan: &'a CellPlan,
    tracer: &'a mut Tracer,
    nodes: Vec<Node>,
    pool: ClientPool,
    certifier: Certifier,
    /// Every committed writeset; its index plus one is its global
    /// sequence (rejoin catch-up replays from here).
    committed: Vec<WriteSet>,
    next_client: usize,
    next_node: usize,
    /// Remote applications still owed to the report's count.
    applies_left: u64,
    /// Mirror of the master's redo log, for the bytes-per-commit count.
    wal: WalWriter,
    counts: ReplayCounts,
}

/// Replays `plan`'s operation stream, sized by `report`, recording one
/// span per layer call into `tracer`.
///
/// # Errors
///
/// Returns an error when a pre-decided outcome does not happen (a
/// commit conflicts or an abort commits), or when the schedule crashes
/// the single-master master, which the replay does not model.
pub fn replay_cell(
    plan: &CellPlan,
    report: &RunReport,
    tracer: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let cfg = &plan.cfg;
    let durable = plan.durable();
    let group = cfg.durability.group_commit.max(1);
    let mut nodes = Vec::with_capacity(cfg.replicas);
    let mut compiled = None;
    for _ in 0..cfg.replicas {
        let mut db = Database::new();
        let install = tracer.enter(INSTALL);
        plan.spec
            .create_schema(&mut db)
            .map_err(|e| e.to_string())?;
        let c = plan.spec.compile(&db).map_err(|e| e.to_string())?;
        let seed = tracer.enter(SEED_ROWS);
        c.seed(&mut db, cfg.seed_scale).map_err(|e| e.to_string())?;
        tracer.exit(seed);
        tracer.exit(install);
        let durable =
            durable.then(|| tracer.span(DURABLE_CHECKPOINT, || NodeDurability::new(&db, 0, group)));
        nodes.push(Node {
            db,
            up: true,
            durable,
            applied: 0,
            logged: Vec::new(),
        });
        compiled = Some(c);
    }
    let compiled = compiled.ok_or("a cell needs at least one replica")?;
    let clients = cfg.replicas * plan.spec.clients_per_replica;
    let mut replay = Replay {
        plan,
        certifier: Certifier::new_at(nodes[0].db.version()),
        nodes,
        pool: ClientPool::new(compiled, clients.max(1), cfg.seed),
        tracer,
        committed: Vec::new(),
        next_client: 0,
        next_node: 0,
        applies_left: report.writesets_applied,
        wal: WalWriter::new(group),
        counts: ReplayCounts::default(),
    };
    replay.run(report)?;
    Ok(replay.counts)
}

impl Replay<'_> {
    fn run(&mut self, report: &RunReport) -> Result<(), String> {
        let cfg = &self.plan.cfg;
        let (reads, updates, aborts) = (
            report.read_commits,
            report.update_commits,
            report.conflict_aborts,
        );
        let total = reads + updates;
        let mut ticks = self.plan.ticks().into_iter().map(|(t, _)| t).peekable();
        let mut events = self.plan.events().into_iter().peekable();
        let mut update_index = 0;
        for slot in 0..total {
            let at = cfg.warmup + (slot as f64 + 0.5) / total as f64 * cfg.duration;
            self.advance(&mut events, &mut ticks, at)?;
            let is_update = (slot + 1) * updates / total > slot * updates / total;
            if is_update {
                let failed =
                    (update_index + 1) * aborts / updates - update_index * aborts / updates;
                self.update(failed)?;
                update_index += 1;
            } else {
                self.read()?;
            }
        }
        self.advance(&mut events, &mut ticks, f64::INFINITY)?;
        self.settle_applies();
        self.seal_wal();
        Ok(())
    }

    /// Fires the events and ticks due before `at`, events first on a tie.
    fn advance(
        &mut self,
        events: &mut std::iter::Peekable<impl Iterator<Item = (f64, Event)>>,
        ticks: &mut std::iter::Peekable<impl Iterator<Item = f64>>,
        at: f64,
    ) -> Result<(), String> {
        loop {
            let next_event = events.peek().map(|&(t, _)| t).filter(|&t| t <= at);
            let next_tick = ticks.peek().copied().filter(|&t| t <= at);
            match (next_event, next_tick) {
                (None, None) => return Ok(()),
                (Some(e), tick) if tick.is_none_or(|k| e <= k) => {
                    let (_, ev) = events.next().expect("peeked");
                    self.event(ev)?;
                }
                _ => {
                    ticks.next();
                    self.tick();
                }
            }
        }
    }

    fn event(&mut self, ev: Event) -> Result<(), String> {
        match ev {
            Event::Crash(i) => {
                if i == 0 && self.plan.design == Design::SingleMaster {
                    return Err("the replay does not model a master crash".to_string());
                }
                self.nodes[i].up = false;
            }
            Event::Join(i) if !self.nodes[i].up => self.rejoin(i),
            Event::Join(_) => {}
        }
        Ok(())
    }

    /// Brings a crashed node back: recover from its checkpoint and redo
    /// log (durable cells), then apply every writeset committed since
    /// its recovered point.
    fn rejoin(&mut self, i: usize) {
        let id = self
            .plan
            .durable()
            .then(|| self.tracer.enter(DURABLE_RECOVER));
        let node = &mut self.nodes[i];
        if let Some(d) = node.durable.as_ref() {
            let (db, relay, _replayed) = d.recover();
            node.db = db;
            node.logged.truncate(relay as usize);
            node.applied = node.logged.last().copied().unwrap_or(0);
        }
        for (g, ws) in self
            .committed
            .iter()
            .enumerate()
            .skip(node.applied as usize)
        {
            let version = node
                .db
                .apply_writeset(ws)
                .expect("writesets reference seeded tables");
            node.applied = g as u64 + 1;
            if let Some(d) = node.durable.as_mut() {
                node.logged.push(node.applied);
                d.log(node.logged.len() as u64, version, ws);
            }
        }
        node.up = true;
        if let Some(id) = id {
            self.tracer.exit(id);
        }
    }

    /// A vacuum tick: vacuum every live node; durable cells re-checkpoint
    /// every live node and image the master once.
    fn tick(&mut self) {
        let tracer = &mut *self.tracer;
        for node in self.nodes.iter_mut().filter(|n| n.up) {
            let reclaimed = tracer.span(VACUUM, || node.db.vacuum());
            self.counts.reclaimed += reclaimed as u64;
        }
        if !self.plan.durable() {
            return;
        }
        for node in self.nodes.iter_mut().filter(|n| n.up) {
            let relay = node.logged.len() as u64;
            if let Some(d) = node.durable.as_mut() {
                tracer.span(DURABLE_CHECKPOINT, || d.checkpoint(&node.db, relay));
            }
        }
        let image = tracer.span(CHECKPOINT, || self.nodes[0].db.checkpoint());
        self.counts.checkpoint_bytes += image.to_bytes().len() as u64;
        self.seal_wal();
    }

    /// Counts the mirrored redo-log bytes so far and starts a new log,
    /// as a checkpoint does.
    fn seal_wal(&mut self) {
        let fresh = WalWriter::new(self.plan.cfg.durability.group_commit.max(1));
        let sealed = std::mem::replace(&mut self.wal, fresh).into_bytes();
        self.counts.wal_bytes += sealed.len() as u64;
    }

    /// The next live node, round robin.
    fn pick(&mut self) -> usize {
        let n = self.nodes.len();
        for _ in 0..n {
            let i = self.next_node % n;
            self.next_node += 1;
            if self.nodes[i].up {
                return i;
            }
        }
        0
    }

    /// Samples templates until one of the wanted kind comes up; only
    /// that draw is timed.
    fn sample(&mut self, update: bool) -> TxnTemplate {
        let clients = self.pool.len();
        loop {
            let client = ClientId(self.next_client % clients);
            self.next_client += 1;
            let id = self.tracer.enter(SAMPLE);
            let template = self.pool.next_transaction(client);
            if template.is_update == update {
                self.tracer.exit(id);
                return template;
            }
            self.tracer.discard(id);
        }
    }

    fn execute(&mut self, node: usize, txn: TxnId, template: &TxnTemplate) -> Result<(), String> {
        let db = &mut self.nodes[node].db;
        let plan = self.pool.plan();
        self.tracer
            .span(EXECUTE, || plan.execute(db, txn, template))
            .map_err(|e| e.to_string())
    }

    fn read(&mut self) -> Result<(), String> {
        let template = self.sample(false);
        let node = self.pick();
        let txn = self.nodes[node].db.begin();
        self.execute(node, txn, &template)?;
        let db = &mut self.nodes[node].db;
        self.tracer
            .span(COMMIT, || db.commit(txn))
            .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// One committed update preceded by `failed` conflict aborts. Each
    /// aborted attempt opens its snapshot before the committing attempt
    /// and writes the same rows, so it conflicts with it.
    fn update(&mut self, failed: u64) -> Result<(), String> {
        let template = self.sample(true);
        let origin = match self.plan.design {
            Design::MultiMaster => self.pick(),
            _ => 0,
        };
        let stale: Vec<TxnId> = (0..failed).map(|_| self.nodes[origin].db.begin()).collect();
        let txn = self.nodes[origin].db.begin();
        self.execute(origin, txn, &template)?;
        let global = self.committed.len() as u64 + 1;
        let ws = if self.plan.design == Design::MultiMaster {
            let mut ws = self.writeset(origin, txn)?;
            // The replay decides outcomes up front: an origin that skipped
            // a propagated writeset (see `settle_applies`) must not turn
            // the committing attempt into a conflict.
            ws.base_version = ws.base_version.max(self.certifier.version());
            if !matches!(self.certify(&ws), Certification::Commit(_)) {
                return Err("a committing attempt failed certification".to_string());
            }
            let db = &mut self.nodes[origin].db;
            let version = self
                .tracer
                .span(APPLY, || db.apply_writeset(&ws))
                .map_err(|e| e.to_string())?;
            self.nodes[origin].record_apply(self.tracer, global, version, &ws);
            ws
        } else {
            let db = &mut self.nodes[origin].db;
            let info = self
                .tracer
                .span(COMMIT, || db.commit(txn))
                .map_err(|e| e.to_string())?;
            self.nodes[origin].record_apply(self.tracer, global, info.commit_seq, &info.writeset);
            if self.nodes[origin].durable.is_some() {
                self.wal.append(&WalRecord::Commit {
                    seq: info.commit_seq,
                    writeset: info.writeset.clone(),
                });
                self.counts.wal_commits += 1;
            }
            info.writeset
        };
        self.propagate(origin, global, &ws);
        self.committed.push(ws);
        for txn in stale {
            self.execute(origin, txn, &template)?;
            if self.plan.design == Design::MultiMaster {
                let ws = self.writeset(origin, txn)?;
                if self.certify(&ws) != Certification::Abort {
                    return Err("an aborting attempt passed certification".to_string());
                }
            } else {
                let db = &mut self.nodes[origin].db;
                match self.tracer.span(COMMIT, || db.commit(txn)) {
                    Err(e) if e.is_conflict() => {}
                    Err(e) => return Err(e.to_string()),
                    Ok(_) => return Err("an aborting attempt committed".to_string()),
                }
            }
        }
        Ok(())
    }

    /// Extracts the writeset and discards the local transaction, as the
    /// multi-master replica proxy does before certification.
    fn writeset(&mut self, node: usize, txn: TxnId) -> Result<WriteSet, String> {
        let db = &mut self.nodes[node].db;
        let ws = self.tracer.span(WRITESET, || db.writeset_of(txn));
        db.abort(txn).map_err(|e| e.to_string())?;
        ws.map_err(|e| e.to_string())
    }

    fn certify(&mut self, ws: &WriteSet) -> Certification {
        let certifier = &mut self.certifier;
        self.tracer.span(CERTIFY, || certifier.certify(ws))
    }

    /// Applies a committed writeset on the live remote nodes while the
    /// report's count of remote applications lasts.
    fn propagate(&mut self, origin: usize, global: u64, ws: &WriteSet) {
        let n = self.nodes.len();
        for k in 1..n {
            if self.applies_left == 0 {
                return;
            }
            let r = (origin + k) % n;
            if self.nodes[r].up {
                self.apply(r, global, ws);
            }
        }
    }

    fn apply(&mut self, node: usize, global: u64, ws: &WriteSet) {
        let db = &mut self.nodes[node].db;
        let version = self
            .tracer
            .span(APPLY, || db.apply_writeset(ws))
            .expect("writesets reference seeded tables");
        self.nodes[node].record_apply(self.tracer, global, version, ws);
        self.applies_left -= 1;
    }

    /// Spends the remote applications the report counts beyond full
    /// propagation by re-applying the last writeset round robin.
    fn settle_applies(&mut self) {
        let Some(ws) = self.committed.last().cloned() else {
            return;
        };
        let global = self.committed.len() as u64;
        while self.applies_left > 0 {
            let node = self.pick();
            self.apply(node, global, &ws);
        }
    }
}
