//! The figure harness: regenerates the paper's tables and figures.
//!
//! ```text
//! figures [fig-id ...]          # default: every id of Experiments::FIGURES
//! HH_SCALE=paper figures        # full evaluation scale (slow); also quick, mini
//! HH_WORKERS=2 figures          # executor pool size (default: all cores)
//! HH_OUT=results figures        # also write results/<id>.txt
//! HH_BENCH_OUT=b.json figures   # also write {id: wall ms, ..., "total": ms}
//! HH_TRACE=out.json figures     # also export a Perfetto trace + metrics JSONL,
//!                               # validate it, and exit 1 if it is malformed
//! ```
//!
//! An unknown figure id, `HH_SCALE` value or a non-positive `HH_WORKERS`
//! exits 2 with the accepted values before any figure runs.

use hh_core::{Experiments, RunPlan, Scale};
use hh_trace::export::{metrics_jsonl, perfetto_json, summary_table, validate_perfetto};

fn main() {
    let (ex, ids) = parse_env_and_args().unwrap_or_else(|msg| {
        eprintln!("figures: {msg}");
        std::process::exit(2);
    });
    let trace_path = hh_trace::init_from_env();
    let out_dir = std::env::var_os("HH_OUT");
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create HH_OUT directory");
    }
    eprintln!(
        "# scale: {} servers, {} req/VM, {} rps/VM",
        ex.scale.servers, ex.scale.requests_per_vm, ex.scale.rps_per_vm
    );
    let (timings_ms, total_s) = timed(|| {
        let mut timings_ms = Vec::with_capacity(ids.len());
        for id in &ids {
            println!("\n===== {id} =====");
            let (report, secs) = timed(|| ex.figure(id).expect("figure ids are validated up front"));
            println!("{report}");
            if let Some(dir) = &out_dir {
                let path = std::path::Path::new(dir).join(format!("{id}.txt"));
                std::fs::write(&path, &report).expect("write figure report");
            }
            eprintln!("# {id} took {secs:.1}s");
            timings_ms.push((id, secs * 1e3));
        }
        timings_ms
    });
    if let Ok(path) = std::env::var("HH_BENCH_OUT") {
        // Hand-rolled JSON: flat string->number object, one key per line.
        let mut json = String::from("{\n");
        for (id, ms) in &timings_ms {
            json.push_str(&format!("  \"{id}\": {ms:.1},\n"));
        }
        json.push_str(&format!("  \"total\": {:.1}\n}}\n", total_s * 1e3));
        std::fs::write(&path, json).expect("write HH_BENCH_OUT");
        eprintln!("# bench: {path}");
    }
    if let Some(path) = trace_path {
        if let Err(e) = export_trace(&path) {
            eprintln!("figures: {e}");
            std::process::exit(1);
        }
    }
}

/// The experiments `HH_SCALE`/`HH_WORKERS` ask for and the figure ids on
/// the command line, or a message naming the bad input and what it accepts.
fn parse_env_and_args() -> Result<(Experiments, Vec<String>), String> {
    let scale = match std::env::var_os("HH_SCALE") {
        None => Scale::quick(),
        Some(raw) => raw.to_str().and_then(Scale::named).ok_or_else(|| {
            format!("unknown HH_SCALE {raw:?}; accepted: {}", Scale::NAMES.join(" "))
        })?,
    };
    // Checked before Experiments::quick() builds the global pool from it.
    RunPlan::workers_from_env()?;
    let mut ids: Vec<String> = std::env::args().skip(1).collect();
    if ids.is_empty() {
        ids = Experiments::FIGURES.iter().map(|&id| id.to_owned()).collect();
    }
    if let Some(bad) = ids.iter().find(|id| !Experiments::FIGURES.contains(&id.as_str())) {
        return Err(format!(
            "unknown figure id {bad:?}; accepted: {}",
            Experiments::FIGURES.join(" ")
        ));
    }
    Ok((Experiments { scale, ..Experiments::quick() }, ids))
}

/// Runs `f` and returns its result with the host seconds it took.
#[expect(
    clippy::disallowed_types,
    reason = "figure timing is host wall time by design; it never feeds simulated time"
)]
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Drains every trace session plus the executor trace, writes the Perfetto
/// JSON at `path` and the metrics snapshot at `<path>.metrics.jsonl`,
/// prints the summary table, then validates the JSON just written.
fn export_trace(path: &str) -> Result<(), String> {
    let sessions = hh_trace::take_sessions();
    let exec = hh_trace::exec::take();
    let json = perfetto_json(&sessions, &exec);
    let metrics_path = format!("{path}.metrics.jsonl");
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    std::fs::write(&metrics_path, metrics_jsonl(&sessions, &exec))
        .map_err(|e| format!("write {metrics_path}: {e}"))?;
    eprint!("{}", summary_table(&sessions, &exec));
    eprintln!("# trace: {path} (+ {metrics_path})");
    let r = validate_perfetto(&json).map_err(|e| format!("INVALID Perfetto trace {path}: {e}"))?;
    eprintln!(
        "# validated: {} events ({} spans, {} instants, {} counters, {} metadata) across {} processes",
        r.events, r.complete, r.instants, r.counters, r.metadata, r.pids
    );
    Ok(())
}
