//! Criterion benchmarks for the hot paths: raw engine event throughput
//! and the parallel vs serial scenario sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use replipred::model::Design;
use replipred::scenario::{Scenario, PUBLISHED_WORKLOADS};
use replipred_repl::SimConfig;
use replipred_sim::engine::{Engine, Event};
use std::hint::black_box;

/// Schedule-and-fire a 100k-event chain through the engine's slab path:
/// the per-event cost of the event loop itself.
fn bench_engine_schedule_fire(c: &mut Criterion) {
    struct Chain;
    impl Event<u64> for Chain {
        fn fire(self, engine: &mut Engine<u64, Chain>) {
            *engine.world_mut() += 1;
            if *engine.world() < 100_000 {
                engine.schedule_event_in(0.001, Chain);
            }
        }
    }
    c.bench_function("engine_schedule_fire", |b| {
        b.iter(|| {
            let mut engine: Engine<u64, Chain> = Engine::new(0);
            engine.schedule_event_in(0.001, Chain);
            engine.run();
            black_box(engine.events_executed())
        });
    });
}

/// The full validation grid of the paper: 5 workloads × 3 designs ×
/// replica points 1..=8, simulated. One scenario per workload, exactly
/// what `replipred sweep --design all --replicas 8 --simulate` runs.
fn full_grid(jobs: usize) -> f64 {
    let mut tput = 0.0;
    for workload in PUBLISHED_WORKLOADS {
        let report = Scenario::published(workload)
            .expect("published workload")
            .designs(Design::ALL.to_vec())
            .replicas(1..=8)
            .simulate(true)
            .sim_config(SimConfig::quick(0, 0))
            .jobs(jobs)
            .run()
            .expect("published scenarios run");
        for design in &report.designs {
            for run in &design.measured {
                tput += run.throughput_tps;
            }
        }
    }
    tput
}

fn bench_scenario_sweep_serial(c: &mut Criterion) {
    c.bench_function("scenario_sweep_serial", |b| {
        b.iter(|| black_box(full_grid(1)));
    });
}

fn bench_scenario_sweep_par(c: &mut Criterion) {
    let jobs = replipred_sim::pool::default_jobs().max(8);
    c.bench_function("scenario_sweep_par", |b| {
        b.iter(|| black_box(full_grid(jobs)));
    });
}

criterion_group!(
    benches,
    bench_engine_schedule_fire,
    bench_scenario_sweep_serial,
    bench_scenario_sweep_par,
);
criterion_main!(benches);
