//! `replibench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one benchmark workload and prints its metrics, one per line with
//! its unit, then a single JSON object as the last line of stdout:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` (the
//! default) reports the end-to-end metrics of untraced runs; `--trace 1`
//! reports the per-layer metrics of the traced replay.
//!
//! `replibench --record <seed>...` prints the recorded-outcome table rows
//! for `src/expected.rs`.

#![allow(clippy::disallowed_methods)]

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use replibench::alloc::CountingAlloc;
use replibench::e2e::{self, Tally};
use replibench::expected;
use replibench::trace::Tracer;
use replibench::traced::{traced_run, Metric};
use replibench::workload::Workload;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The default seed: the paper's year.
const DEFAULT_SEED: u64 = 2009;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: replibench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       replibench --record <seed>...",
        names.join("|")
    )
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "`--seed` takes an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or("`--seconds` takes a non-negative number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("`--trace` takes 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the traced run writes its spans.
fn spans_path(w: Workload, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{seed}.tsv", w.name()))
}

fn write_spans(tracer: &Tracer, path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    tracer.write_tsv(&mut BufWriter::new(File::create(path)?))
}

/// The result line: one JSON object with the failure accounting and
/// every metric with its unit.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn end_to_end(w: Workload, seed: u64, seconds: f64) -> (Tally, Vec<Metric>) {
    let m = e2e::measure(w, seed, seconds);
    println!(
        "# {} seed {seed}: {} (setup, full) pairs, {} measured commits per run, counts checked against {}",
        w.name(),
        m.walls.len(),
        m.commits,
        if m.recorded { "the recorded table" } else { "the first run" },
    );
    let round = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("# full runs (s): {}", round(&m.walls));
    println!("# setup runs (s): {}", round(&m.setups));
    // The prediction error is pinned exactly by the output checks; it is
    // printed but left out of the result line, whose metrics carry
    // timing bounds (see README.md).
    println!("{:<34} {:>16.6} %", "tput_err_pct", m.tput_err_pct);
    let metrics = vec![
        Metric::new("wall_s", m.wall_s, "s"),
        Metric::new("setup_s", m.setup_s, "s"),
        Metric::new("host_us_per_commit", m.host_us_per_commit, "us"),
        Metric::new("peak_rss_mb", m.peak_rss_mb, "MB"),
    ];
    (m.tally, metrics)
}

fn traced(w: Workload, seed: u64) -> (Tally, Vec<Metric>) {
    let t = traced_run(w, seed);
    println!("# {} seed {seed}: traced replay", w.name());
    let path = spans_path(w, seed);
    match write_spans(&t.tracer, &path) {
        Ok(()) => println!("# {} spans written to {}", t.tracer.len(), path.display()),
        Err(e) => eprintln!("warning: spans not written to {}: {e}", path.display()),
    }
    (t.tally, t.metrics)
}

fn record(seeds: &[String]) -> ExitCode {
    for seed in seeds {
        let Ok(seed) = seed.parse::<u64>() else {
            eprintln!("error: `{seed}` is not a seed\n{}", usage());
            return ExitCode::from(2);
        };
        for w in Workload::ALL {
            match w.scenario(seed, w.jobs(), false).and_then(|s| s.run()) {
                Ok(report) => println!(
                    "{}",
                    expected::table_row(w, seed, &e2e::cell_outcomes(&report))
                ),
                Err(e) => {
                    eprintln!("error: {} at seed {seed}: {e}", w.name());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--record") {
        return record(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (tally, metrics) = if args.trace {
        traced(args.workload, args.seed)
    } else {
        end_to_end(args.workload, args.seed, args.seconds)
    };
    for note in &tally.notes {
        eprintln!("check failed: {note}");
    }
    for m in &metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&tally, &metrics));
    ExitCode::SUCCESS
}
