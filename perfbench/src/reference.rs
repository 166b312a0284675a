//! The correctness check: every simulated result is rendered as one
//! canonical text row and compared exactly against the rows stored for the
//! same workload and seed under `refs/`.
//!
//! A cluster row carries the per-service P50/P99, completed requests, L2
//! hits and misses, batch units, reassignments, reclaims, queue overflows
//! and per-server end times; a lab row carries one service's four policy hit rates.
//! Floats print in Rust's shortest round-trip form, so equal text means
//! bit-equal values.

use std::fmt::Write;
use std::path::PathBuf;

use hh_core::{ClusterMetrics, PolicyHitRates};

/// Renders one cluster result.
pub fn cluster_row(m: &ClusterMetrics) -> String {
    let servers = m.servers();
    let sum = |f: fn(&hh_core::ServerMetrics) -> u64| servers.iter().map(f).sum::<u64>();
    let mut row = format!(
        "{} completed={} l2_hits={} l2_misses={} batch_units={} reassignments={} reclaims={} queue_overflows={} end_time={:?}",
        m.system(),
        m.completed(),
        sum(|s| s.l2_hits),
        sum(|s| s.l2_misses),
        sum(|s| s.batch_units),
        sum(|s| s.reassignments),
        sum(|s| s.reclaims),
        sum(|s| s.queue_overflows),
        servers.iter().map(|s| s.end_time.as_u64()).collect::<Vec<_>>(),
    );
    for (label, q) in [("p50", 0.50), ("p99", 0.99)] {
        let (per_service, _) = m.latency_percentiles(q);
        write!(row, " {label}={per_service:?}").expect("String write is infallible");
    }
    row
}

/// Renders the lab's result, one row per service.
pub fn lab_rows(rates: &[PolicyHitRates]) -> Vec<String> {
    rates
        .iter()
        .map(|r| {
            format!(
                "{} lru={:?} rrip={:?} hardharvest={:?} belady={:?}",
                r.service, r.lru, r.rrip, r.hardharvest, r.belady
            )
        })
        .collect()
}

fn store_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("refs")
        .join(format!("{workload}.txt"))
}

/// Stored lines of `workload`, as (seed, row) pairs.
fn stored(workload: &str) -> Vec<(u64, String)> {
    let Ok(text) = std::fs::read_to_string(store_path(workload)) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let (seed, row) = l.split_once('\t')?;
            Some((seed.parse().ok()?, row.to_string()))
        })
        .collect()
}

/// Replaces the stored rows of (`workload`, `seed`) with `rows`.
pub fn record(workload: &str, seed: u64, rows: &[String]) -> std::io::Result<()> {
    let mut all: Vec<(u64, String)> = stored(workload)
        .into_iter()
        .filter(|(s, _)| *s != seed)
        .collect();
    all.extend(rows.iter().map(|r| (seed, r.clone())));
    all.sort_by_key(|(s, _)| *s); // stable: rows of one seed keep their order
    let mut text = String::new();
    for (s, row) in all {
        writeln!(text, "{s}\t{row}").expect("String write is infallible");
    }
    let path = store_path(workload);
    std::fs::create_dir_all(path.parent().expect("refs dir"))?;
    std::fs::write(path, text)
}

/// Compares result rows against the reference and counts operations.
///
/// Without stored rows for the seed, the first result seen becomes the
/// reference, so later repetitions must still reproduce it bit for bit.
#[derive(Debug)]
pub struct Checker {
    expected: Option<Vec<String>>,
    /// Whether `expected` came from `refs/` rather than from this run.
    pub stored: bool,
    /// Rows compared.
    pub attempted: u64,
    /// Rows that differed from the reference or did not complete.
    pub failed: u64,
}

impl Checker {
    /// A checker for (`workload`, `seed`).
    pub fn new(workload: &str, seed: u64) -> Self {
        let rows: Vec<String> = stored(workload)
            .into_iter()
            .filter(|(s, _)| *s == seed)
            .map(|(_, r)| r)
            .collect();
        let stored = !rows.is_empty();
        Checker {
            expected: stored.then_some(rows),
            stored,
            attempted: 0,
            failed: 0,
        }
    }

    /// Checks one execution's rows; `incomplete[i]` marks a row whose
    /// simulation stopped short of its request count.
    pub fn check(&mut self, rows: &[String], incomplete: &[bool]) {
        let expected = self.expected.get_or_insert_with(|| rows.to_vec());
        self.attempted += rows.len() as u64;
        if rows.len() != expected.len() {
            eprintln!(
                "reference: {} rows, expected {}",
                rows.len(),
                expected.len()
            );
            self.failed += rows.len() as u64;
            return;
        }
        for (i, (got, want)) in rows.iter().zip(expected.iter()).enumerate() {
            let short = incomplete.get(i).copied().unwrap_or(false);
            if got != want || short {
                self.failed += 1;
                eprintln!("reference mismatch (incomplete={short}):\n  got  {got}\n  want {want}");
            }
        }
    }

    /// Whether every row so far matched.
    pub fn ok(&self) -> bool {
        self.failed == 0
    }
}
