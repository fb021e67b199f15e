//! The three benchmark workloads, each one [`Scenario`] built from the
//! seed. Every simulated number a workload produces is a deterministic
//! function of `(workload, seed)`.

use replipred::model::Design;
use replipred::repl::{DurabilityConfig, Schedule, SimConfig};
use replipred::scenario::{parse_workload, ScenarioError};
use replipred::workload::WorkloadSpec;
use replipred::Scenario;

/// Fault schedule of `durable-rejoin`: replica 1 crashes at 200 s and
/// rejoins at 400 s, with 20 s transient windows.
const REJOIN_SCHEDULE: &str = "crash@200=1,join@400=1,window=20";

/// Measurement window of the setup-only runs, virtual seconds: long
/// enough to give a finite throughput, short enough that no transaction
/// completes.
const SETUP_WINDOW: f64 = 1e-6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Published tpcw-shopping, mm and sm at n ∈ {16, 8, 1}, quick
    /// windows, two worker threads: seeding-bound.
    ScaleoutQuick,
    /// synth:write-heavy, mm and sm at n = 4, 1200 s window, one thread:
    /// bound by the committed-update path.
    UpdateLong,
    /// synth:write-heavy, sm at n = 4, durability on, one crash and one
    /// rejoin, 600 s window, one thread: bound by checkpoints, the WAL
    /// and recovery.
    DurableRejoin,
}

/// One simulated cell of a workload: a design at a replica count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// The replicated design.
    pub design: Design,
    /// Replica count.
    pub replicas: usize,
}

impl Workload {
    /// Every workload, in the order the docs list them.
    pub const ALL: [Workload; 3] = [
        Workload::ScaleoutQuick,
        Workload::UpdateLong,
        Workload::DurableRejoin,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleoutQuick => "scaleout-quick",
            Workload::UpdateLong => "update-long",
            Workload::DurableRejoin => "durable-rejoin",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry name of the simulated workload.
    pub fn workload_name(self) -> &'static str {
        match self {
            Workload::ScaleoutQuick => "tpcw-shopping",
            Workload::UpdateLong | Workload::DurableRejoin => "synth:write-heavy",
        }
    }

    /// The mechanistic workload spec the cells simulate.
    pub fn spec(self) -> WorkloadSpec {
        parse_workload(self.workload_name()).expect("benchmark workloads are registered")
    }

    /// Worker threads of the scenario.
    pub fn jobs(self) -> usize {
        match self {
            Workload::ScaleoutQuick => 2,
            Workload::UpdateLong | Workload::DurableRejoin => 1,
        }
    }

    /// The designs, in scenario order.
    pub fn designs(self) -> Vec<Design> {
        match self {
            Workload::ScaleoutQuick | Workload::UpdateLong => {
                vec![Design::MultiMaster, Design::SingleMaster]
            }
            Workload::DurableRejoin => vec![Design::SingleMaster],
        }
    }

    /// The replica points, in scenario order. `scaleout-quick` lists the
    /// largest first: its two workers then take the cells longest first,
    /// which keeps them balanced and makes the same cells overlap (and so
    /// the same peak memory) on every run.
    pub fn replicas(self) -> Vec<usize> {
        match self {
            Workload::ScaleoutQuick => vec![16, 8, 1],
            Workload::UpdateLong | Workload::DurableRejoin => vec![4],
        }
    }

    /// The cells in the order [`Scenario::run`] reports them.
    pub fn cells(self) -> Vec<Cell> {
        let replicas = self.replicas();
        self.designs()
            .into_iter()
            .flat_map(|design| {
                replicas
                    .iter()
                    .map(move |&replicas| Cell { design, replicas })
            })
            .collect()
    }

    /// True when the workload runs with durability and the fault schedule.
    pub fn durable(self) -> bool {
        self == Workload::DurableRejoin
    }

    /// The simulation template: warm-up and measurement windows, plus
    /// the schedule and durability of `durable-rejoin`. The replica
    /// count and seed are set per cell by the scenario.
    pub fn sim_config(self, seed: u64) -> SimConfig {
        let duration = match self {
            Workload::ScaleoutQuick => return SimConfig::quick(0, seed),
            Workload::UpdateLong => 1200.0,
            Workload::DurableRejoin => 600.0,
        };
        let mut cfg = SimConfig {
            warmup: 20.0,
            duration,
            ..SimConfig::quick(0, seed)
        };
        if self.durable() {
            cfg.schedule = Schedule::parse(REJOIN_SCHEDULE).expect("the schedule parses");
            cfg.durability = durability();
        }
        cfg
    }

    /// The workload's scenario at `seed`, run on `jobs` threads. With
    /// `setup_only` the same cells run with a zero warm-up and a
    /// near-zero measurement window: seeding, replica construction,
    /// initial checkpoints and (for synth workloads) profiling, with no
    /// transaction simulated.
    ///
    /// # Errors
    ///
    /// Propagates registry errors.
    pub fn scenario(
        self,
        seed: u64,
        jobs: usize,
        setup_only: bool,
    ) -> Result<Scenario, ScenarioError> {
        let mut cfg = self.sim_config(seed);
        if setup_only {
            cfg.warmup = 0.0;
            cfg.duration = SETUP_WINDOW;
        }
        let mut scenario = Scenario::workload(self.workload_name())?
            .designs(self.designs())
            .replicas(self.replicas())
            .seed(seed)
            .simulate(true)
            .jobs(jobs)
            .sim_config(cfg.clone());
        if self.durable() {
            scenario = scenario.schedule(cfg.schedule).durability(cfg.durability);
        }
        Ok(scenario)
    }
}

/// The durability settings of `durable-rejoin`: the defaults (group
/// commit 8, 2 ms fsync), switched on.
pub fn durability() -> DurabilityConfig {
    DurabilityConfig {
        enabled: true,
        ..DurabilityConfig::default()
    }
}
