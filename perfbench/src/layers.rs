//! The traced run: per-layer metrics from the benchmark's own spans around
//! calls into each crate, unit costs from replays of the workload's own
//! streams, and a ledger that adds work count × unit cost up against the
//! measured `ServerSim::run` (or lab) time.
//!
//! Layers the workload does not execute report 0.

use std::collections::BTreeMap;

use hh_core::{ClusterMetrics, RunPlan, ServerMetrics, ServerSim};
use hh_mem::PolicyKind;

use crate::host::{self, timed};
use crate::reference::{cluster_row, lab_rows, Checker};
use crate::replay::{self, Cost, StreamMix};
use crate::workload::{self, Clusters, Workload};
use crate::{Metric, Outcome};

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("core.run_cluster_s", "s"),
    ("core.pool_idle_frac", "frac"),
    ("core.sims_run", "count"),
    ("core.memo_hits", "count"),
    ("server.new_s", "s"),
    ("server.run_s", "s"),
    ("server.run_s_max", "s"),
    ("server.host_us_per_req", "us"),
    ("server.requests", "count"),
    ("server.batch_units", "count"),
    ("server.reassignments", "count"),
    ("server.reclaims", "count"),
    ("server.queue_overflows", "count"),
    ("server.sim_ms", "ms"),
    ("mem.l2_refs", "count"),
    ("mem.l2_hit_rate", "frac"),
    ("mem.access_ns.lru", "ns"),
    ("mem.access_ns.hardharvest", "ns"),
    ("mem.flush_ns", "ns"),
    ("mem.l1_filter_ns", "ns"),
    ("mem.access_run_ns_per_ref.lru", "ns"),
    ("mem.access_run_ns_per_ref.rrip", "ns"),
    ("mem.access_run_ns_per_ref.hardharvest", "ns"),
    ("mem.belady_ns_per_ref", "ns"),
    ("workload.plan_us", "us"),
    ("workload.stream_ns_per_ref", "ns"),
    ("workload.unit_stream_ns_per_ref", "ns"),
    ("workload.refs_per_req", "count"),
    ("workload.refs_per_unit", "count"),
    ("sim.event_ns", "ns"),
    ("sim.percentile_us", "us"),
    ("hwqueue.op_ns", "ns"),
    ("lab.run_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("ledger.explained_frac", "frac"),
];

/// Per-layer values by name; names not set report 0.
#[derive(Debug, Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Sets a unit cost and prints its median and spread over the trials.
    fn cost(&mut self, name: &'static str, cost: &Cost) {
        if !cost.trials.is_empty() {
            println!(
                "unit cost {name:<40} median {:>12.4}  spread {:>5.1}% over {} trials",
                cost.median(),
                cost.spread() * 100.0,
                cost.trials.len()
            );
        }
        self.set(name, cost.median());
    }

    fn into_metrics(self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// One ledger line: a layer's work count and count x unit cost.
struct Entry {
    layer: &'static str,
    count: f64,
    estimated: bool,
    seconds: f64,
}

/// Prints the ledger against `measured_s` and returns the explained share.
fn print_ledger(entries: &[Entry], measured: &str, measured_s: f64) -> f64 {
    println!("ledger: count x unit cost vs {measured} = {measured_s:.3} s");
    for e in entries {
        let unit_ns = if e.count > 0.0 {
            e.seconds / e.count * 1e9
        } else {
            0.0
        };
        println!(
            "  {:<28} {:>14.0} {:<9} x {:>10.2} ns = {:>8.3} s  ({:>5.1}%)",
            e.layer,
            e.count,
            if e.estimated { "estimated" } else { "exact" },
            unit_ns,
            e.seconds,
            100.0 * e.seconds / measured_s
        );
    }
    let total: f64 = entries.iter().map(|e| e.seconds).sum();
    println!(
        "  {:<28} {:>48.3} s  ({:>5.1}%)",
        "explained",
        total,
        100.0 * total / measured_s
    );
    total / measured_s
}

/// Per trial, the count-weighted mean of several systems' unit costs.
fn weighted(parts: &[(f64, Cost)]) -> Cost {
    let parts: Vec<&(f64, Cost)> = parts
        .iter()
        .filter(|(w, c)| *w > 0.0 && !c.trials.is_empty())
        .collect();
    let total: f64 = parts.iter().map(|(w, _)| w).sum();
    let trials = parts.iter().map(|(_, c)| c.trials.len()).min().unwrap_or(0);
    Cost {
        trials: (0..trials)
            .map(|k| parts.iter().map(|(w, c)| w * c.trials[k]).sum::<f64>() / total)
            .collect(),
    }
}

/// The traced run of `w`.
pub fn run(w: Workload, seed: u64) -> Outcome {
    match w.clusters() {
        Some(c) => clusters(w, &c, seed),
        None => lab(w, seed),
    }
}

/// A counting signature of one batch: the stored-reference rows, which
/// carry every count metric.
fn rows(metrics: &[ClusterMetrics]) -> Vec<String> {
    metrics.iter().map(cluster_row).collect()
}

fn clusters(w: Workload, c: &Clusters, seed: u64) -> Outcome {
    let workers = host::workers();
    let mut check = Checker::new(w.name(), seed);
    let mut v = Values::default();

    // Untraced, then traced, at `workers` workers: the traced pass adds a
    // span around each RunPlan::run_cluster call. One set-up pass first
    // warms the allocator, as the untraced run's set-up passes do.
    c.setup_seconds(seed);
    let plan = RunPlan::with_workers(workers);
    let ((untraced, _), wall_u) = timed(|| c.run_on(&plan, seed));
    check.check(&rows(&untraced.metrics), &untraced.incomplete);
    let plan = RunPlan::with_workers(workers);
    let cpu0 = host::cpu_seconds();
    let ((traced, cluster_s), wall_t) = timed(|| c.run_on(&plan, seed));
    // Servers are pure compute, so the pass's CPU time is the pool's busy
    // time: the sum of its ServerSim runs.
    let busy = host::cpu_seconds() - cpu0;
    check.check(&rows(&traced.metrics), &traced.incomplete);
    v.set(
        "core.run_cluster_s",
        cluster_s.iter().sum::<f64>() / cluster_s.len() as f64,
    );
    v.set("core.sims_run", plan.sims_run() as f64);
    v.set("core.memo_hits", plan.memo_hits() as f64);
    v.set("trace.wall_s", wall_t);
    v.set("trace.overhead_frac", wall_t / wall_u - 1.0);

    // One worker: the benchmark runs every server itself, with spans
    // around ServerSim::new and ServerSim::run. Its rows must equal the
    // pooled passes' (the determinism guard: every count metric is in
    // them).
    let configs = c.configs(seed);
    let (mut new_s, mut run_s, mut pct_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut serial = Vec::new();
    for (sys, cfgs) in c.systems.iter().zip(&configs) {
        let servers: Vec<ServerMetrics> = cfgs
            .iter()
            .map(|cfg| {
                let (sim, t) = timed(|| ServerSim::new(cfg.clone()));
                new_s.push(t);
                let (m, t) = timed(|| sim.run());
                run_s.push(t);
                m
            })
            .collect();
        let m = ClusterMetrics::new(sys.name, servers);
        for q in [0.50, 0.99] {
            pct_us.push(timed(|| m.latency_percentiles(q)).1 * 1e6);
        }
        serial.push(m);
    }
    let serial = c.results(serial);
    check.check(&rows(&serial.metrics), &serial.incomplete);
    let run_total: f64 = run_s.iter().sum();
    v.set(
        "core.pool_idle_frac",
        1.0 - busy / (workers as f64 * wall_t),
    );
    v.set("server.new_s", new_s.iter().sum());
    v.set("server.run_s", run_total);
    v.set(
        "server.run_s_max",
        run_s.iter().copied().fold(0.0, f64::max),
    );
    v.set(
        "server.host_us_per_req",
        run_total * 1e6 / serial.requests as f64,
    );
    v.set("sim.percentile_us", host::median(&pct_us));

    let all: Vec<&ServerMetrics> = serial.metrics.iter().flat_map(|m| m.servers()).collect();
    let sum = |f: fn(&ServerMetrics) -> u64| all.iter().map(|s| f(s)).sum::<u64>() as f64;
    let l2_hits = sum(|s| s.l2_hits);
    let l2_refs = l2_hits + sum(|s| s.l2_misses);
    v.set("server.requests", serial.requests as f64);
    v.set("server.batch_units", sum(|s| s.batch_units));
    v.set("server.reassignments", sum(|s| s.reassignments));
    v.set("server.reclaims", sum(|s| s.reclaims));
    v.set("server.queue_overflows", sum(|s| s.queue_overflows));
    v.set(
        "server.sim_ms",
        all.iter().map(|s| s.end_time.as_ms()).sum(),
    );
    v.set("mem.l2_refs", l2_refs);
    v.set("mem.l2_hit_rate", l2_hits / l2_refs);

    // Unit costs on the workload's own streams.
    let mix = StreamMix::new(&configs[0]);
    let (stream_ns, unit_stream_ns) = mix.stream_costs();
    let event_ns = replay::event_queue(&mix);
    let op_ns = replay::hwqueue(&configs[0][0], &mix);
    v.cost("workload.plan_us", &mix.plan_us);
    v.cost("workload.stream_ns_per_ref", &stream_ns);
    v.cost("workload.unit_stream_ns_per_ref", &unit_stream_ns);
    v.cost("sim.event_ns", &event_ns);
    v.cost("hwqueue.op_ns", &op_ns);
    v.set("workload.refs_per_req", mix.refs_per_req());
    v.set("workload.refs_per_unit", mix.refs_per_unit());

    // CoreMem per system, at the unit and flush ratios the cluster showed.
    // A ledger line sums count x median unit cost over the systems; the
    // mem.* metrics weight each system's per-trial costs by its counts.
    let per_req = |n: u64, m: &ClusterMetrics| n as f64 / m.completed() as f64;
    let mut entries: Vec<Entry> = [
        ("workload.plan (requests)", false),
        ("workload.stream (req refs)", true),
        ("workload.unit_stream (refs)", true),
        ("mem.access (req refs)", true),
        ("mem.access (unit refs)", true),
        ("mem.flush (flushes)", true),
        ("sim.event (push+pop)", true),
        ("hwqueue.op (ops)", true),
    ]
    .map(|(layer, estimated)| Entry {
        layer,
        count: 0.0,
        estimated,
        seconds: 0.0,
    })
    .into();
    let (mut lru, mut hh, mut flush) = (Vec::new(), Vec::new(), Vec::new());
    for (m, cfgs) in serial.metrics.iter().zip(&configs) {
        let sys = cfgs[0].system;
        let units: u64 = m.servers().iter().map(|s| s.batch_units).sum();
        let reassign: u64 = m.servers().iter().map(|s| s.reassignments).sum();
        let flushes = if sys.flush_enabled { reassign } else { 0 };
        let mem = replay::core_mem(&cfgs[0], &mix, per_req(units, m), per_req(flushes, m));
        let requests = m.completed() as f64;
        let req_refs = requests * mix.refs_per_req();
        let unit_refs = units as f64 * mix.refs_per_unit();
        let events = requests * 2.0 * mix.phases_per_req() + units as f64 + reassign as f64;
        let ops = requests * replay::hwqueue_ops_per_req(&mix);
        let lines = [
            (requests, mix.plan_us.median() * 1e-6),
            (req_refs, stream_ns.median() * 1e-9),
            (unit_refs, unit_stream_ns.median() * 1e-9),
            (req_refs, mem.req_ns.median() * 1e-9),
            (unit_refs, mem.unit_ns.median() * 1e-9),
            (flushes as f64, mem.flush_ns.median() * 1e-9),
            (events, event_ns.median() * 1e-9),
            (ops, op_ns.median() * 1e-9),
        ];
        for (e, (count, unit_s)) in entries.iter_mut().zip(lines) {
            e.count += count;
            e.seconds += count * unit_s;
        }
        let access = if sys.cache_policy() == PolicyKind::Lru {
            &mut lru
        } else {
            &mut hh
        };
        access.push((req_refs, mem.req_ns));
        access.push((unit_refs, mem.unit_ns));
        flush.push((flushes as f64, mem.flush_ns));
    }
    v.cost("mem.access_ns.lru", &weighted(&lru));
    v.cost("mem.access_ns.hardharvest", &weighted(&hh));
    v.cost("mem.flush_ns", &weighted(&flush));

    let explained = print_ledger(&entries, "server.run_s", run_total);
    v.set("ledger.explained_frac", explained);
    println!(
        "core.pool_idle_frac = 1 - {busy:.3} busy s / ({workers} workers x {wall_t:.3} s) = {:.3}",
        1.0 - busy / (workers as f64 * wall_t)
    );

    Outcome::new(&check, v.into_metrics())
}

fn lab(w: Workload, seed: u64) -> Outcome {
    let mut check = Checker::new(w.name(), seed);
    let mut v = Values::default();
    let lab = workload::lab(seed);

    // A warm-up run first: the process's first lab run pays page faults
    // the untraced run's median never sees.
    check.check(&lab_rows(&lab.run()), &[]);
    let (untraced, wall_u) = timed(|| lab.run());
    check.check(&lab_rows(&untraced), &[]);
    let (traced, wall_t) = timed(|| lab.run());
    check.check(&lab_rows(&traced), &[]);
    v.set("lab.run_s", wall_t);
    v.set("trace.wall_s", wall_t);
    v.set("trace.overhead_frac", wall_t / wall_u - 1.0);

    let l = crate::lab::layers(&lab, &traced);
    // A replica that no longer mirrors the lab would time a different trace.
    check.attempted += 1;
    if !l.matches_lab {
        check.failed += 1;
    }
    v.cost("workload.plan_us", &l.plan_us);
    v.cost("workload.stream_ns_per_ref", &l.stream_ns);
    v.cost("workload.unit_stream_ns_per_ref", &l.unit_stream_ns);
    v.cost("mem.l1_filter_ns", &l.l1_ns);
    v.cost("mem.access_run_ns_per_ref.lru", &l.access_run_ns[0]);
    v.cost("mem.access_run_ns_per_ref.rrip", &l.access_run_ns[1]);
    v.cost("mem.access_run_ns_per_ref.hardharvest", &l.access_run_ns[2]);
    v.cost("mem.belady_ns_per_ref", &l.belady_ns);
    v.set("workload.refs_per_req", l.req_refs as f64 / l.plans as f64);
    v.set(
        "workload.refs_per_unit",
        l.unit_refs as f64 / l.episodes as f64,
    );

    let entry = |layer, count: u64, cost: &Cost, scale: f64| Entry {
        layer,
        count: count as f64,
        estimated: false,
        seconds: count as f64 * cost.median() * scale,
    };
    let [lru, rrip, hh] = &l.access_run_ns;
    let entries = [
        entry("workload.plan (plans)", l.plans, &l.plan_us, 1e-6),
        entry("workload.stream (req refs)", l.req_refs, &l.stream_ns, 1e-9),
        entry(
            "workload.unit_stream (refs)",
            l.unit_refs,
            &l.unit_stream_ns,
            1e-9,
        ),
        entry("mem.l1_filter (accesses)", l.l1_accesses(), &l.l1_ns, 1e-9),
        entry("mem.access_run.lru (refs)", l.l2_refs, lru, 1e-9),
        entry("mem.access_run.rrip (refs)", l.l2_refs, rrip, 1e-9),
        entry("mem.access_run.hh (refs)", l.l2_refs, hh, 1e-9),
        entry("mem.belady (refs)", l.l2_refs, &l.belady_ns, 1e-9),
    ];
    v.set(
        "ledger.explained_frac",
        print_ledger(&entries, "lab.run_s", wall_t),
    );
    Outcome::new(&check, v.into_metrics())
}
