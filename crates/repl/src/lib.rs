//! Mechanistic simulators of replicated snapshot-isolated databases.
//!
//! The paper validates its analytical models against two prototype
//! systems on a 16-machine cluster (Section 5): a Tashkent-style
//! **multi-master** design (Figure 4: replica proxies + replicated
//! certifier) and a Ganymed-style **single-master** design (Figure 5:
//! master + slaves). This crate is our stand-in for that cluster: a
//! discrete-event simulation in which
//!
//! - every replica hosts a *real* [`replipred_sidb`] snapshot-isolation
//!   engine, so conflicts, aborts and snapshot staleness are *emergent*,
//!   not assumed;
//! - CPU is a processor-sharing server and the disk a FCFS queue, with
//!   per-transaction exponential service demands from the workload spec;
//! - clients follow the closed-loop think-time model, retrying aborted
//!   update transactions exactly like the paper's RTE servlets.
//!
//! Modules:
//!
//! - [`config`] — simulation run parameters (replicas, seed, warm-up and
//!   measurement windows, delays).
//! - [`metrics`] — the measured [`metrics::RunReport`]: throughput,
//!   response times, abort rate, utilizations.
//! - [`design`] — the design-polymorphic [`Simulator`] trait and the
//!   simulator side of the design registry
//!   (`design.simulator(spec, sim_config)`).
//! - [`certifier`] — the multi-master certification service: version-based
//!   write-write conflict detection over the global writeset log. The
//!   certifier's own replication is modelled the way the paper measures
//!   it: a round-trip delay ([`config::SimConfig::certifier_delay`]) plus
//!   injected `cert-down`/`cert-up` outages.
//! - `cluster` (crate-private) — the one simulation core all three
//!   designs share: nodes with a CPU, a disk and an SI engine, closed-loop
//!   clients, admission control, responses and retries, failover,
//!   writeset propagation with in-order retirement, and schedule
//!   injection. Each design plugs in a small statically dispatched
//!   policy: where updates are routed, how they commit (certifier round
//!   trip or local first-committer-wins), and its crash, rejoin, vacuum
//!   and post-apply hooks.
//! - [`standalone`] — the one-node policy (the profiling target and the
//!   `N = 1` anchor of every measured curve).
//! - [`mm`] — the multi-master policy: any replica executes, the
//!   certifier orders and conflict-checks.
//! - [`sm`] — the single-master policy: the master executes and
//!   certifies locally, slaves apply its relay log; master election,
//!   recovery and state transfer on failures.
//! - [`durable`] — per-replica durability (checkpoint + redo log +
//!   recovery) and [`wslog`] — the bounded, truncatable relay log; both
//!   back the crash/rejoin paths when
//!   [`config::DurabilityConfig`] is enabled.
//! - [`transient`] — windowed time-series collection and the
//!   [`transient::TransientReport`] produced by time-phased runs (see
//!   [`replipred_core::Schedule`]): all three simulators apply replica
//!   crashes/rejoins, certifier outages, and client-population ramps
//!   mid-run and report recovery time, SLO-violation windows, and peak
//!   abort rate next to the steady-state numbers.
//!
//! # Examples
//!
//! ```
//! use replipred_repl::{config::SimConfig, mm::MultiMasterSim};
//! use replipred_workload::tpcw;
//!
//! let spec = tpcw::mix(tpcw::Mix::Shopping);
//! let cfg = SimConfig::quick(4, 42); // 4 replicas, short windows
//! let report = MultiMasterSim::new(spec, cfg).run();
//! assert!(report.throughput_tps > 0.0);
//! ```

pub mod certifier;
mod cluster;
pub mod config;
pub mod design;
pub mod durable;
pub mod metrics;
pub mod mm;
pub mod sm;
pub mod standalone;
pub mod transient;
pub mod wslog;

pub use certifier::Certifier;
pub use config::{DurabilityConfig, SimConfig};
pub use design::{DesignSpec, Simulator, SimulatorRegistry};
pub use durable::NodeDurability;
pub use metrics::RunReport;
pub use mm::MultiMasterSim;
pub use replipred_core::{Design, Phase, Schedule, ScheduleEvent};
pub use sm::SingleMasterSim;
pub use standalone::StandaloneSim;
pub use transient::{TransientCollector, TransientReport};
pub use wslog::WsLog;
