//! The traced run: each cell's simulator timed on its own, the
//! profiler and predictor curves, and the replay of every cell's
//! operation stream with one span per layer call.

use std::collections::BTreeMap;
use std::time::Instant;

use replipred::model::{SystemConfig, WorkloadProfile};
use replipred::profiler::Profiler;
use replipred::repl::RunReport;
use replipred::scenario::published_profile;

use crate::alloc::count_allocations;
use crate::e2e::{cell_runs, Tally};
use crate::replay::{
    replay_cell, CellPlan, ReplayCounts, CHECKPOINT, CURVE, DURABLE_RECOVER, INSTALL, LAYERS,
    PER_TXN_LAYERS, PROFILE, RUN, SEED_ROWS,
};
use crate::trace::Tracer;
use crate::workload::Workload;

/// Largest replica count of the predicted curves.
const CURVE_REPLICAS: usize = 16;

/// A reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What the traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Cells attempted and failed (simulator reports that differ from
    /// the scenario's, replays whose call counts differ from the counts
    /// derived from the report, replay errors).
    pub tally: Tally,
    /// The recorded spans.
    pub tracer: Tracer,
}

/// Runs the traced measurement of `w` at `seed`.
pub fn traced_run(w: Workload, seed: u64) -> Traced {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(true);
    let plans = CellPlan::for_workload(w, seed);

    // Untraced reference: the scenario as the end-to-end run makes it.
    let t = Instant::now();
    let scenario = w.scenario(seed, w.jobs(), false).and_then(|s| s.run());
    let scenario_s = t.elapsed().as_secs_f64();
    let scenario = match scenario {
        Ok(report) => report,
        Err(e) => {
            tally.attempted += plans.len() as u64;
            tally.failed += plans.len() as u64;
            tally.notes.push(format!("scenario run: {e}"));
            return Traced {
                metrics: Vec::new(),
                tally,
                tracer,
            };
        }
    };
    let expected = cell_runs(&scenario);

    // Each cell's simulator on its own, counting allocations.
    let mut reports: Vec<RunReport> = Vec::new();
    let mut allocations = 0;
    for (i, plan) in plans.iter().enumerate() {
        tally.attempted += 1;
        tracer.set_cell(i as u32);
        let (report, allocs) = count_allocations(|| tracer.span(RUN, || plan.simulate()));
        allocations += allocs;
        if expected.get(i).copied() != Some(&report) {
            tally.failed += 1;
            tally.notes.push(format!(
                "cell {i}: the simulator report differs from the scenario's"
            ));
        }
        reports.push(report);
    }

    // The model side: the profile (measured live for synth workloads)
    // and one predicted curve per design.
    tracer.set_cell(u32::MAX);
    let spec = w.spec();
    let profile: WorkloadProfile = match published_profile(w.workload_name()) {
        Some(profile) => profile,
        None => {
            let profiler = Profiler::new(spec.clone()).seed(seed);
            tracer.span(PROFILE, || profiler.profile()).profile
        }
    };
    let mut config = SystemConfig::lan_cluster(spec.clients_per_replica);
    config.think_time = spec.think_time;
    for design in w.designs() {
        match design.predictor(profile.clone(), config.clone()) {
            Ok(predictor) => {
                if let Err(e) = tracer.span(CURVE, || predictor.curve(CURVE_REPLICAS)) {
                    tally.notes.push(format!("curve: {e}"));
                }
            }
            Err(e) => tally.notes.push(format!("predictor: {e}")),
        }
    }

    // The replay, untraced then traced; the difference is the overhead.
    let t = Instant::now();
    let mut off = Tracer::new(false);
    for (plan, report) in plans.iter().zip(&reports) {
        let _ = replay_cell(plan, report, &mut off);
    }
    let untraced_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut counts = ReplayCounts::default();
    let mut outcomes = Vec::new();
    for (i, (plan, report)) in plans.iter().zip(&reports).enumerate() {
        tracer.set_cell(i as u32);
        outcomes.push(replay_cell(plan, report, &mut tracer));
    }
    let traced_s = t.elapsed().as_secs_f64();
    for (i, ((plan, report), outcome)) in plans.iter().zip(&reports).zip(outcomes).enumerate() {
        tally.attempted += 1;
        match outcome {
            Ok(c) => {
                counts.reclaimed += c.reclaimed;
                counts.checkpoint_bytes += c.checkpoint_bytes;
                counts.wal_bytes += c.wal_bytes;
                counts.wal_commits += c.wal_commits;
                let mut made = tracer.calls(i as u32);
                made.remove(RUN);
                let derived: BTreeMap<_, _> = plan
                    .derived_calls(report)
                    .into_iter()
                    .filter(|&(_, calls)| calls > 0)
                    .collect();
                if made != derived {
                    tally.failed += 1;
                    tally.notes.push(format!(
                        "cell {i}: replay calls {made:?}, derived {derived:?}"
                    ));
                }
            }
            Err(e) => {
                tally.failed += 1;
                tally.notes.push(format!("cell {i}: replay failed: {e}"));
            }
        }
    }

    let layers = tracer.layers();
    let mut metrics = Vec::new();
    for name in LAYERS {
        let stats = layers.get(name).cloned().unwrap_or_default();
        metrics.push(Metric::new(
            format!("{name}.calls"),
            stats.calls as f64,
            "count",
        ));
        metrics.push(Metric::new(format!("{name}.self_ms"), stats.self_ms, "ms"));
        metrics.push(Metric::new(format!("{name}.p50_us"), stats.p50_us, "us"));
        metrics.push(Metric::new(format!("{name}.tail_us"), stats.tail_us, "us"));
        metrics.push(Metric::new(format!("{name}.tail_pct"), stats.tail_pct, "%"));
    }
    let self_ms = |name: &str| layers.get(name).map_or(0.0, |s| s.self_ms);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (updates, aborts, commits) = reports.iter().fold((0, 0, 0), |(u, a, c), r| {
        (
            u + r.update_commits,
            a + r.conflict_aborts,
            c + r.read_commits + r.update_commits,
        )
    });
    let checkpoints = layers.get(CHECKPOINT).map_or(0, |s| s.calls);
    // The replay covers the measurement window; the simulator also runs
    // the warm-up, so per-transaction work is scaled to the horizon.
    let cfg = &plans[0].cfg;
    let horizon = (cfg.warmup + cfg.duration) / cfg.duration;
    let replayed_ms = self_ms(INSTALL)
        + self_ms(SEED_ROWS)
        + self_ms(DURABLE_RECOVER)
        + horizon * PER_TXN_LAYERS.iter().map(|l| self_ms(l)).sum::<f64>();
    metrics.extend([
        Metric::new("sidb.vacuum.reclaimed", counts.reclaimed as f64, "count"),
        Metric::new(
            "sidb.checkpoint.bytes",
            ratio(counts.checkpoint_bytes as f64, checkpoints as f64),
            "B",
        ),
        Metric::new(
            "sidb.wal.bytes_per_commit",
            ratio(counts.wal_bytes as f64, counts.wal_commits as f64),
            "B",
        ),
        Metric::new(
            "repl.abort_ratio",
            ratio(aborts as f64, (updates + aborts) as f64),
            "ratio",
        ),
        Metric::new(
            "scenario.pool_efficiency",
            ratio(self_ms(RUN) / 1e3, w.jobs() as f64 * scenario_s),
            "ratio",
        ),
        Metric::new("sim.residual_ms", self_ms(RUN) - replayed_ms, "ms"),
        Metric::new(
            "alloc.per_commit",
            ratio(allocations as f64, commits as f64),
            "count",
        ),
        Metric::new(
            "trace.overhead_pct",
            ratio(traced_s - untraced_s, untraced_s) * 100.0,
            "%",
        ),
    ]);
    Traced {
        metrics,
        tally,
        tracer,
    }
}
