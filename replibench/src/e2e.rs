//! The untraced end-to-end run: repeated `Scenario::run` calls timed on
//! the host, plus the output checks and failure accounting.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use replipred::repl::RunReport;
use replipred::ScenarioReport;

use crate::expected;
use crate::stats::median;
use crate::workload::Workload;

/// Fewest (setup, full) run pairs a measurement makes, however short
/// its time budget.
pub const MIN_PAIRS: usize = 3;

/// What the output checks pin for one cell: its simulated counts and
/// its throughput prediction error, to the last digit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutcome {
    /// Committed read-only transactions in the window.
    pub read_commits: u64,
    /// Committed update transactions in the window.
    pub update_commits: u64,
    /// Conflict aborts in the window.
    pub conflict_aborts: u64,
    /// Writesets applied on remote replicas in the window.
    pub writesets_applied: u64,
    /// |predicted − simulated| / simulated throughput, percent.
    pub tput_err_pct: f64,
}

/// Every simulated cell of a report, in grid order.
pub fn cell_runs(report: &ScenarioReport) -> Vec<&RunReport> {
    report.designs.iter().flat_map(|d| &d.measured).collect()
}

/// The pinned outcome of every cell, in grid order.
pub fn cell_outcomes(report: &ScenarioReport) -> Vec<CellOutcome> {
    report
        .designs
        .iter()
        .flat_map(|d| d.paired())
        .map(|(p, m)| CellOutcome {
            read_commits: m.read_commits,
            update_commits: m.update_commits,
            conflict_aborts: m.conflict_aborts,
            writesets_applied: m.writesets_applied,
            tput_err_pct: (p.throughput_tps - m.throughput_tps).abs() / m.throughput_tps * 100.0,
        })
        .collect()
}

/// Committed transactions in the measurement windows of every cell.
pub fn measured_commits(report: &ScenarioReport) -> u64 {
    cell_runs(report)
        .iter()
        .map(|r| r.read_commits + r.update_commits)
        .sum()
}

/// Mean |predicted − simulated| / simulated throughput over the cells,
/// in percent.
pub fn tput_err_pct(report: &ScenarioReport) -> f64 {
    let cells = cell_outcomes(report);
    cells.iter().map(|c| c.tput_err_pct).sum::<f64>() / cells.len().max(1) as f64
}

/// Cells attempted and failed, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells run.
    pub attempted: u64,
    /// Cells that errored, panicked or failed an output check.
    pub failed: u64,
    /// One line per failed cell.
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    /// Calls `run` once, counting its `cells` attempted, and all of them
    /// failed when it errors, panics or reports another number of cells.
    fn guarded(
        &mut self,
        cells: usize,
        what: &str,
        run: impl FnOnce() -> Result<ScenarioReport, String>,
    ) -> Option<ScenarioReport> {
        self.attempted += cells as u64;
        let outcome = catch_unwind(AssertUnwindSafe(run))
            .unwrap_or_else(|_| Err("the run panicked".to_string()))
            .and_then(|report| match cell_runs(&report).len() {
                got if got == cells => Ok(report),
                got => Err(format!("{got} cells reported, {cells} expected")),
            });
        match outcome {
            Ok(report) => Some(report),
            Err(e) => {
                self.failed += cells as u64;
                self.notes.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Compares each cell's outcome with `reference`, failing the cells
    /// that differ.
    fn check_outcomes(&mut self, report: &ScenarioReport, reference: &[CellOutcome]) {
        let got = cell_outcomes(report);
        if got.len() != reference.len() {
            self.fail(format!(
                "{} cells paired, {} expected",
                got.len(),
                reference.len()
            ));
        }
        for (i, (got, want)) in got.iter().zip(reference).enumerate() {
            if got != want {
                self.fail(format!("cell {i}: {got:?}, expected {want:?}"));
            }
        }
    }

    /// `durable-rejoin` must report its crash and rejoin and a finite
    /// recovery time.
    fn check_rejoin(&mut self, report: &ScenarioReport) {
        for (i, run) in cell_runs(report).into_iter().enumerate() {
            if let Err(e) = rejoin_observed(run) {
                self.fail(format!("cell {i}: {e}"));
            }
        }
    }

    /// The report at the workload's job count must serialize to the
    /// same bytes as a serial run of the same cells.
    fn check_serial_identity(&mut self, parallel: &ScenarioReport, serial: &ScenarioReport) {
        let json = |r: &RunReport| serde_json::to_string(r).expect("reports serialize");
        let cells = cell_runs(parallel).into_iter().zip(cell_runs(serial));
        for (i, (p, s)) in cells.enumerate() {
            if json(p) != json(s) {
                self.fail(format!("cell {i}: the jobs(1) report differs"));
            }
        }
    }
}

/// Checks that a scheduled run reports the crash of replica 1, its
/// rejoin, and a finite recovery time.
fn rejoin_observed(run: &RunReport) -> Result<(), String> {
    let transient = run
        .transient
        .as_ref()
        .ok_or("no transient report".to_string())?;
    for wanted in ["crash replica 1", "rejoin replica 1"] {
        if !transient.events.iter().any(|e| e.event.contains(wanted)) {
            return Err(format!(
                "event `{wanted}` missing from {:?}",
                transient.events
            ));
        }
    }
    match transient.recovery_time {
        Some(t) if t.is_finite() => Ok(()),
        other => Err(format!("recovery time {other:?} is not finite")),
    }
}

/// What the untraced run measured.
#[derive(Debug)]
pub struct EndToEnd {
    /// Median host seconds of the workload's `Scenario::run`.
    pub wall_s: f64,
    /// Median host seconds of the setup-only scenario.
    pub setup_s: f64,
    /// Median over run pairs of (full − setup) host time per measured
    /// commit, microseconds.
    pub host_us_per_commit: f64,
    /// Peak resident memory of the process, MiB.
    pub peak_rss_mb: f64,
    /// Mean throughput prediction error over the cells, percent.
    pub tput_err_pct: f64,
    /// Host seconds of every full run, in run order.
    pub walls: Vec<f64>,
    /// Host seconds of every setup-only run, in run order.
    pub setups: Vec<f64>,
    /// Measured commits of one full run.
    pub commits: u64,
    /// Cells attempted and failed.
    pub tally: Tally,
    /// Whether the seed's counts were checked against recorded values
    /// (otherwise only against the first run of this process).
    pub recorded: bool,
}

fn run(w: Workload, seed: u64, jobs: usize, setup_only: bool) -> Result<ScenarioReport, String> {
    w.scenario(seed, jobs, setup_only)
        .and_then(|s| s.run())
        .map_err(|e| e.to_string())
}

/// Measures `w` at `seed` for about `seconds` seconds of host time: at
/// least [`MIN_PAIRS`] pairs of a setup-only run followed by a full run.
/// Every full run's cells are checked against the recorded counts for
/// the seed (or, for a seed with no record, against the first run);
/// `durable-rejoin` checks its fault events, and the parallel
/// `scaleout-quick` report is compared with a serial run once the
/// timing is done.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> EndToEnd {
    let cells = w.cells().len();
    let mut tally = Tally::default();
    let recorded = expected::recorded(w, seed);
    let mut reference: Option<Vec<CellOutcome>> = recorded.map(<[CellOutcome]>::to_vec);
    let mut first: Option<ScenarioReport> = None;
    let (mut walls, mut setups, mut per_commit) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last_pair = 0.0;
    // Start another pair only while it should end inside the budget.
    while walls.len() < MIN_PAIRS || start.elapsed().as_secs_f64() + last_pair < seconds {
        let t = Instant::now();
        let setup = tally.guarded(cells, "setup run", || run(w, seed, w.jobs(), true));
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let full = tally.guarded(cells, "full run", || run(w, seed, w.jobs(), false));
        let wall_s = t.elapsed().as_secs_f64();
        last_pair = setup_s + wall_s;
        let (Some(_), Some(full)) = (setup, full) else {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            continue;
        };
        let reference = reference.get_or_insert_with(|| cell_outcomes(&full));
        tally.check_outcomes(&full, reference);
        if w.durable() {
            tally.check_rejoin(&full);
        }
        let commits = measured_commits(&full).max(1);
        walls.push(wall_s);
        setups.push(setup_s);
        per_commit.push((wall_s - setup_s) / commits as f64 * 1e6);
        first.get_or_insert(full);
    }
    let peak_rss_mb = peak_rss_mb();
    if let Some(first) = &first {
        if w.jobs() > 1 {
            if let Some(serial) = tally.guarded(cells, "serial run", || run(w, seed, 1, false)) {
                tally.check_serial_identity(first, &serial);
            }
        }
    }
    EndToEnd {
        wall_s: median(&walls),
        setup_s: median(&setups),
        host_us_per_commit: median(&per_commit),
        peak_rss_mb,
        tput_err_pct: first.as_ref().map_or(0.0, tput_err_pct),
        commits: first.as_ref().map_or(0, measured_commits),
        walls,
        setups,
        tally,
        recorded: recorded.is_some(),
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB; 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
