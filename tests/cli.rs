//! The `figures` harness rejects bad input before it runs any figure, and
//! renders the golden tables on good input.

use std::process::{Command, Output};

/// Runs `figures` with `args` and the given `HH_*` variables only.
fn figures(env: &[(&str, &str)], args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    for var in ["HH_SCALE", "HH_WORKERS", "HH_OUT", "HH_BENCH_OUT", "HH_TRACE"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied()).args(args).output().expect("spawn figures")
}

/// Asserts exit code 2, no figure output, and a message naming `bad` and
/// listing `accepted`.
fn assert_rejected(out: &Output, bad: &str, accepted: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "a figure ran before the input was rejected");
    assert!(stderr.contains(bad), "message does not name {bad:?}: {stderr}");
    assert!(stderr.contains(accepted), "message does not list {accepted:?}: {stderr}");
}

#[test]
fn unknown_figure_id_is_rejected_before_any_figure_runs() {
    let out = figures(&[("HH_SCALE", "mini")], &["table1", "fig99"]);
    assert_rejected(&out, "fig99", "table1 fig2 fig3");
}

#[test]
fn unknown_scale_is_rejected() {
    let out = figures(&[("HH_SCALE", "papr")], &["table1"]);
    assert_rejected(&out, "papr", "quick mini paper");
}

#[test]
fn non_positive_worker_count_is_rejected() {
    for bad in ["0", "two", "-1"] {
        let out = figures(&[("HH_SCALE", "mini"), ("HH_WORKERS", bad)], &["table1"]);
        assert_rejected(&out, bad, "positive integer");
    }
}

#[test]
fn mini_scale_renders_the_golden_tables() {
    let out = figures(&[("HH_SCALE", "mini")], &["table1", "storage"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (id, golden) in [
        ("table1", include_str!("../results/mini/table1.txt")),
        ("storage", include_str!("../results/mini/storage.txt")),
    ] {
        assert!(stdout.contains(&format!("===== {id} =====\n{golden}")), "{id}:\n{stdout}");
    }
}
