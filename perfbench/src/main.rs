//! hh-perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <peak-five|light-harvest|policy-lab> \
//!     [--seed N] [--seconds S] [--trace 0|1] [--record]
//! ```
//!
//! `--trace 0` sets up the workload several times, then repeats the whole
//! workload, each time on a fresh, cold `RunPlan`, for about `--seconds`,
//! and reports medians of the end-to-end metrics. `--trace 1` makes the traced
//! run instead and reports the per-layer metrics. `--record` runs the
//! workload once and stores its rows as the seed's reference under
//! `perfbench/refs/`. The last stdout line is the JSON result; see
//! `perfbench/NOTES.md` for what each workload and metric is for.

mod host;
mod lab;
mod layers;
mod reference;
mod replay;
mod workload;

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use hh_core::RunPlan;

use crate::host::{median, timed};
use crate::reference::{cluster_row, lab_rows, Checker};
use crate::workload::Workload;

/// Set-up samples taken before each repetition; `setup_s` is the median
/// of all of them.
const SETUP_REPS: usize = 5;
/// Lab constructions timed together as one set-up sample (one takes
/// well under a microsecond).
const LAB_SETUPS_PER_SAMPLE: u32 = 10_000;

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run prints.
#[derive(Debug)]
pub struct Outcome {
    /// Whether the seed's reference rows were stored under `refs/`.
    stored: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn new(check: &Checker, metrics: Vec<Metric>) -> Self {
        Outcome {
            stored: check.stored,
            correct: check.ok(),
            attempted: check.attempted,
            failed: check.failed,
            metrics,
        }
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: bool,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut record) =
            (None, 0x15CA, 30.0, false, false);
        while let Some(flag) = args.next() {
            if flag == "--record" {
                record = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = parse_u64(&value).ok_or_else(bad)?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| *s > 0.0)
                        .ok_or_else(bad)?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        let workload = workload
            .ok_or_else(|| format!("--workload is required: one of {}", names.join(", ")))?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
            record,
        })
    }
}

/// One execution of the workload: its reference rows, per-row
/// completeness, and the simulated requests it completed. Clusters run on
/// a fresh executor, so the memo starts cold.
fn execute(w: Workload, seed: u64) -> (Vec<String>, Vec<bool>, u64) {
    match w.clusters() {
        Some(c) => {
            let (r, _) = c.run_on(&RunPlan::with_workers(host::workers()), seed);
            (
                r.metrics.iter().map(cluster_row).collect(),
                r.incomplete,
                r.requests,
            )
        }
        None => {
            let lab = workload::lab(seed);
            let rates = lab.run();
            (
                lab_rows(&rates),
                Vec::new(),
                workload::lab_invocations(&lab),
            )
        }
    }
}

/// Seconds of one set-up: config resolution plus every `ServerSim::new`,
/// or one lab construction.
fn setup_seconds(w: Workload, seed: u64) -> f64 {
    match w.clusters() {
        Some(c) => c.setup_seconds(seed),
        None => {
            let (_, t) = timed(|| {
                for _ in 0..LAB_SETUPS_PER_SAMPLE {
                    black_box(workload::lab(black_box(seed)));
                }
            });
            t / f64::from(LAB_SETUPS_PER_SAMPLE)
        }
    }
}

/// The untraced run: end-to-end metrics.
fn timed_run(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut check = Checker::new(w.name(), seed);
    let (mut setup, mut wall, mut cpu, mut rate, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    // Repeat while the next repetition would end nearer the deadline than
    // stopping now does.
    while wall
        .last()
        .is_none_or(|last| start.elapsed().as_secs_f64() + last / 2.0 < seconds)
    {
        // Set-up samples are spread over the run like the repetitions.
        setup.extend((0..SETUP_REPS).map(|_| setup_seconds(w, seed)));
        host::reset_peak_rss();
        let cpu0 = host::cpu_seconds();
        let ((rows, incomplete, requests), t) = timed(|| execute(w, seed));
        cpu.push(host::cpu_seconds() - cpu0);
        rss.push(host::peak_rss_mb());
        wall.push(t);
        rate.push(requests as f64 / t);
        check.check(&rows, &incomplete);
        println!(
            "repetition {}: wall {t:.3} s, cpu {:.3} s, peak rss {:.1} MB",
            wall.len(),
            cpu[cpu.len() - 1],
            rss[rss.len() - 1]
        );
    }
    let metric = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        metric("wall_s", median(&wall), "s"),
        metric("cpu_s", median(&cpu), "s"),
        metric("sim_req_per_s", median(&rate), "1/s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", median(&rss), "MB"),
    ];
    Outcome::new(&check, metrics)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hh-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let scale = w.clusters().map_or_else(
        || {
            format!(
                "{{\"lab_invocations_per_service\":{}}}",
                workload::lab(args.seed).invocations
            )
        },
        |c| c.scale_json(),
    );
    println!("manifest: {}", host::manifest(w.name(), args.seed, &scale));

    if args.record {
        let (rows, incomplete, _) = execute(w, args.seed);
        if incomplete.iter().any(|&i| i) {
            eprintln!("hh-perfbench: a cluster did not complete; not recording");
            return ExitCode::FAILURE;
        }
        if let Err(e) = reference::record(w.name(), args.seed, &rows) {
            eprintln!("hh-perfbench: cannot store reference: {e}");
            return ExitCode::FAILURE;
        }
        println!(
            "recorded {} rows for {} seed {}",
            rows.len(),
            w.name(),
            args.seed
        );
        return ExitCode::SUCCESS;
    }

    let outcome = if args.trace {
        layers::run(w, args.seed)
    } else {
        timed_run(w, args.seed, args.seconds)
    };
    println!(
        "reference: {}; {} of {} rows failed",
        if outcome.stored {
            "stored rows for this seed"
        } else {
            "none stored for this seed; repetitions checked against each other"
        },
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}
