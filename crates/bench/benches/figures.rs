//! The figure-regeneration bench target: `cargo bench --bench figures`
//! re-derives the data series of every table and figure in the paper's
//! evaluation section and prints them (set `HH_SCALE=paper` for the full
//! evaluation size; the default quick scale keeps `cargo bench` fast).

use hh_bench::{run_figure, scale_from_env, ALL_FIGURES};

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them and
    // accept figure ids if any are given.
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let ids: Vec<&str> = if ids.is_empty() {
        ALL_FIGURES.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    let ex = scale_from_env();
    println!(
        "figure harness: {} servers, {} requests/VM, {} rps/VM",
        ex.scale.servers, ex.scale.requests_per_vm, ex.scale.rps_per_vm
    );
    for id in ids {
        #[expect(clippy::disallowed_types, reason = "figure timing is host wall time by design; it never feeds simulated time")]
        let started = std::time::Instant::now();
        println!("\n===== {id} =====");
        println!("{}", run_figure(&ex, id));
        println!("[{id}: {:.1}s]", started.elapsed().as_secs_f64());
    }
}
