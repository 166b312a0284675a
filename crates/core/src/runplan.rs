//! The run-plan executor: one bounded worker pool plus a memo table for
//! every cluster simulation the figure harness requests.
//!
//! Several figures re-run identical simulations: Figures 11 and 16 differ
//! only in the percentile they report, Figure 17 and the utilization study
//! revisit the same five systems, and four experiments re-simulate the
//! stock `NoHarvest` baseline. [`RunPlan`] deduplicates them — a cluster
//! run is keyed by the full text of its resolved per-server
//! [`ServerConfig`]s, so any two requests that would simulate the same
//! thing share one result.
//!
//! Per-server [`ServerSim`] jobs from *all* concurrent cluster runs are
//! scheduled onto one bounded pool of OS threads (default:
//! `available_parallelism`, overridable with `HH_WORKERS`), so a figure
//! with five rows × N servers keeps every core busy without oversubscribing
//! the machine. Results are collected by server index and merged in config
//! order, which makes every metric bit-identical regardless of the worker
//! count or scheduling interleaving.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // hot path: DESIGN.md §12

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};

use hh_server::{ServerConfig, ServerMetrics, ServerSim, SystemSpec};

use crate::{ClusterMetrics, Scale};

/// A unit of pool work: simulate one server, send its metrics home.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Memoizing parallel executor for cluster simulations.
///
/// See the module docs for the design. The process-wide instance used by
/// [`crate::run_cluster`] and [`crate::Experiments`] is [`RunPlan::global`];
/// tests that need isolated memo tables or fixed worker counts create their
/// own with [`RunPlan::with_workers`] / [`RunPlan::leaked`].
pub struct RunPlan {
    workers: usize,
    queue: mpsc::Sender<Job>,
    /// One result cell per distinct simulation, keyed by the full memo
    /// key (see [`memo_key`]). The `Arc<OnceLock>` is cloned out of the
    /// map before initialization, so concurrent requests for one key block
    /// on a single simulation instead of racing duplicates.
    memo: Mutex<BTreeMap<Box<str>, Arc<OnceLock<ClusterMetrics>>>>,
    sims_run: AtomicU64,
    memo_hits: AtomicU64,
}

impl fmt::Debug for RunPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunPlan")
            .field("workers", &self.workers)
            .field("sims_run", &self.sims_run())
            .field("memo_hits", &self.memo_hits())
            .finish()
    }
}

impl RunPlan {
    /// An executor with `workers` pool threads (clamped to at least one).
    pub fn with_workers(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            std::thread::spawn(move || loop {
                // Take the lock only to dequeue; run the job unlocked.
                #[expect(
                    clippy::expect_used,
                    reason = "a poisoned queue lock means a sibling worker panicked; \
                              joining it is pointless"
                )]
                let job = match rx.lock().expect("worker queue poisoned").recv() {
                    Ok(job) => job,
                    Err(_) => break, // executor dropped
                };
                if hh_trace::enabled() {
                    hh_trace::exec::worker_begin();
                    job();
                    hh_trace::exec::worker_end();
                } else {
                    job();
                }
            });
        }
        RunPlan {
            workers,
            queue: tx,
            memo: Mutex::default(),
            sims_run: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
        }
    }

    /// The process-wide executor, sized by [`RunPlan::workers_from_env`].
    ///
    /// # Panics
    /// Panics if `HH_WORKERS` is set but not a positive integer.
    pub fn global() -> &'static RunPlan {
        static GLOBAL: OnceLock<RunPlan> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            #[expect(
                clippy::panic,
                reason = "a mistyped HH_WORKERS must not silently run at another pool size"
            )]
            let workers = RunPlan::workers_from_env().unwrap_or_else(|e| panic!("{e}"));
            RunPlan::with_workers(workers)
        })
    }

    /// The pool size `HH_WORKERS` asks for, or the machine's available
    /// parallelism when it is unset.
    ///
    /// # Errors
    /// Names the value when `HH_WORKERS` is set but not a positive integer.
    pub fn workers_from_env() -> Result<usize, String> {
        let Some(raw) = std::env::var_os("HH_WORKERS") else {
            return Ok(std::thread::available_parallelism().map_or(1, |n| n.get()));
        };
        raw.to_str()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("HH_WORKERS must be a positive integer, got {raw:?}"))
    }

    /// A leaked, `'static` executor for tests that pin the worker count or
    /// need an isolated memo table / fresh counters.
    pub fn leaked(workers: usize) -> &'static RunPlan {
        Box::leak(Box::new(RunPlan::with_workers(workers)))
    }

    /// Pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cluster simulations actually executed (memo misses).
    pub fn sims_run(&self) -> u64 {
        self.sims_run.load(Ordering::Relaxed)
    }

    /// Cluster runs served from the memo table without simulating.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Runs (or recalls) a cluster under `system` with per-server config
    /// tweaks. Equivalent requests — same resolved configs — simulate once.
    pub fn run_cluster_with(
        &self,
        system: SystemSpec,
        scale: Scale,
        seed: u64,
        tweak: impl Fn(&mut ServerConfig),
    ) -> ClusterMetrics {
        let traced = hh_trace::enabled();
        let t0 = if traced { hh_trace::exec::wall_us() } else { 0.0 };
        let configs = resolved_configs(system, scale, seed, tweak);
        let cell = self.memo_cell(memo_key(system, &configs));
        if let Some(hit) = cell.get() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            if traced {
                hh_trace::exec::record_span(cluster_span_label(system, seed), t0, true);
            }
            return hit.clone();
        }
        let mut simulated = false;
        let out = cell
            .get_or_init(|| {
                simulated = true;
                self.sims_run.fetch_add(1, Ordering::Relaxed);
                self.simulate(system, configs)
            })
            .clone();
        if traced {
            // A racing thread may have initialized the cell first; that
            // still counts as a memo hit from this caller's perspective.
            hh_trace::exec::record_span(cluster_span_label(system, seed), t0, !simulated);
        }
        out
    }

    /// Runs (or recalls) a cluster with stock Table 1 knobs.
    pub fn run_cluster(&self, system: SystemSpec, scale: Scale, seed: u64) -> ClusterMetrics {
        self.run_cluster_with(system, scale, seed, |_| {})
    }

    /// The result cell for `key`, created on first use.
    fn memo_cell(&self, key: String) -> Arc<OnceLock<ClusterMetrics>> {
        #[expect(
            clippy::expect_used,
            reason = "lock poisoning means a worker panicked mid-simulation; the run is \
                      already lost, die loudly"
        )]
        let mut memo = self.memo.lock().expect("memo poisoned");
        Arc::clone(memo.entry(key.into_boxed_str()).or_default())
    }

    /// Fans the per-server jobs out to the pool and reassembles the
    /// metrics in server order (determinism does not depend on which
    /// worker finishes first).
    fn simulate(&self, system: SystemSpec, configs: Vec<ServerConfig>) -> ClusterMetrics {
        let n = configs.len();
        let (tx, rx) = mpsc::channel::<(usize, ServerMetrics)>();
        let sys_name = system.name;
        for (i, cfg) in configs.into_iter().enumerate() {
            let tx = tx.clone();
            #[expect(
                clippy::expect_used,
                reason = "send fails only after every worker thread died, which is itself \
                          a panic already"
            )]
            self.queue
                .send(Box::new(move || {
                    let traced = hh_trace::enabled();
                    let t0 = if traced { hh_trace::exec::wall_us() } else { 0.0 };
                    let metrics = ServerSim::new(cfg).run();
                    if traced {
                        hh_trace::exec::record_span(format!("{sys_name}#{i}"), t0, false);
                    }
                    // The receiver only disappears if this run was abandoned
                    // (caller panicked); nothing left to report then.
                    let _ = tx.send((i, metrics));
                }))
                .expect("worker pool shut down");
        }
        drop(tx);
        let mut slots: Vec<Option<ServerMetrics>> = (0..n).map(|_| None).collect();
        for (i, metrics) in rx {
            slots[i] = Some(metrics);
        }
        #[expect(
            clippy::expect_used,
            reason = "every slot is filled exactly once by construction of the \
                      (i, metrics) channel"
        )]
        let servers = slots
            .into_iter()
            .map(|s| s.expect("server simulation lost"))
            .collect();
        ClusterMetrics::new(system.name, servers)
    }
}

/// Label of a cluster-level executor span: system plus request seed.
fn cluster_span_label(system: SystemSpec, seed: u64) -> String {
    format!("{} seed={seed:#x}", system.name)
}

/// Resolves the per-server configurations of one cluster run, applying the
/// experiment's tweak hook to each. This is exactly what [`RunPlan`] would
/// simulate for the same arguments — public so the `hh-check` serial
/// reference executor can replay identical configs outside the pool.
pub fn resolved_configs(
    system: SystemSpec,
    scale: Scale,
    seed: u64,
    tweak: impl Fn(&mut ServerConfig),
) -> Vec<ServerConfig> {
    (0..scale.servers)
        .map(|i| {
            let mut cfg = ServerConfig::table1(system);
            cfg.requests_per_vm = scale.requests_per_vm;
            cfg.rps_per_vm = scale.rps_per_vm;
            cfg.batch_job = i % 8;
            cfg.seed = seed ^ ((i as u64 + 1) << 32);
            tweak(&mut cfg);
            cfg
        })
        .collect()
}

/// The memo identity of one cluster run: the system label plus the `Debug`
/// rendering of every resolved per-server config, which embeds the
/// [`SystemSpec`], the scale knobs and the per-server seed. The label is
/// mixed in so same-config variants renamed for a figure stay distinct
/// rows.
fn memo_key(system: SystemSpec, configs: &[ServerConfig]) -> String {
    use fmt::Write;
    let mut key = String::with_capacity(256);
    key.push_str(system.name);
    for cfg in configs {
        key.push('\n');
        #[expect(
            clippy::expect_used,
            reason = "fmt::Write to String cannot fail; the expect documents that, it \
                      never fires"
        )]
        write!(key, "{cfg:?}").expect("String write is infallible");
    }
    key
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            servers: 2,
            requests_per_vm: 40,
            rps_per_vm: 800.0,
        }
    }

    #[test]
    fn every_config_field_is_part_of_the_memo_key() {
        use hh_server::{HarvestMode, SwReassign};
        use hh_sim::Cycles;
        use hh_workload::CatalogKind;

        let base = resolved_configs(SystemSpec::hardharvest_block(), tiny(), 9, |_| {}).remove(0);
        let key = |cfg: &ServerConfig| memo_key(cfg.system, std::slice::from_ref(cfg));
        // Destructured without `..` and each binding used once below: a new
        // field fails to build (or warns unused) until it is perturbed here.
        let ServerConfig {
            system,
            cores,
            primary_vms,
            cores_per_primary,
            harvest_base_cores,
            hierarchy,
            llc,
            harvest_frac,
            flush,
            latency,
            rps_per_vm,
            requests_per_vm,
            batch_job,
            batch_stall_scale,
            capacity_frac,
            infinite_cache,
            eviction_candidate_frac,
            adaptive_block_threshold_us,
            rq_chunks,
            bursty_load,
            catalog,
            seed,
        } = base.clone();
        let SystemSpec {
            name,
            mode,
            opts,
            sw_reassign,
            flush_enabled,
            reassign_enabled,
            harvest_busy,
            buffer_cores,
            max_loaned_per_vm,
            eager_steal,
            predictive_reserve,
        } = system;
        // `set!(path = value)`: the base config with one field changed.
        macro_rules! set {
            ($($field:ident).+ = $value:expr) => {{
                let mut cfg = base.clone();
                cfg.$($field).+ = $value;
                (stringify!($($field).+), cfg)
            }};
        }
        let one = Cycles::new(1);
        let perturbed = [
            set!(cores = cores + 1),
            set!(primary_vms = primary_vms + 1),
            set!(cores_per_primary = cores_per_primary + 1),
            set!(harvest_base_cores = harvest_base_cores + 1),
            set!(hierarchy.page_walk_cycles = hierarchy.page_walk_cycles + 1),
            set!(llc.ways = llc.ways + 1),
            set!(harvest_frac = harvest_frac / 2.0),
            set!(flush.hw_region = flush.hw_region + one),
            set!(latency.hw_ctxt = latency.hw_ctxt + one),
            set!(rps_per_vm = rps_per_vm * 2.0),
            set!(requests_per_vm = requests_per_vm + 1),
            set!(batch_job = batch_job + 1),
            set!(batch_stall_scale = batch_stall_scale * 2.0),
            set!(capacity_frac = capacity_frac / 2.0),
            set!(infinite_cache = !infinite_cache),
            set!(eviction_candidate_frac = Some(eviction_candidate_frac.unwrap_or(0.75) / 2.0)),
            set!(adaptive_block_threshold_us = adaptive_block_threshold_us + 1.0),
            set!(rq_chunks = rq_chunks + 1),
            set!(bursty_load = !bursty_load),
            set!(
                catalog = match catalog {
                    CatalogKind::SocialNet => CatalogKind::HotelReservation,
                    CatalogKind::HotelReservation => CatalogKind::SocialNet,
                }
            ),
            set!(seed = seed ^ 1),
            set!(system.name = &name[1..]),
            set!(
                system.mode = match mode {
                    HarvestMode::Disabled => HarvestMode::OnBlock,
                    _ => HarvestMode::Disabled,
                }
            ),
            set!(system.opts.smart_repl = !opts.smart_repl),
            set!(
                system.sw_reassign = match sw_reassign {
                    SwReassign::Kvm => SwReassign::Optimized,
                    SwReassign::Optimized => SwReassign::Kvm,
                }
            ),
            set!(system.flush_enabled = !flush_enabled),
            set!(system.reassign_enabled = !reassign_enabled),
            set!(system.harvest_busy = !harvest_busy),
            set!(system.buffer_cores = buffer_cores + 1),
            set!(system.max_loaned_per_vm = max_loaned_per_vm / 2),
            set!(system.eager_steal = !eager_steal),
            set!(system.predictive_reserve = !predictive_reserve),
        ];
        let base_key = key(&base);
        for (field, cfg) in &perturbed {
            assert_ne!(key(cfg), base_key, "perturbing {field} left the memo key unchanged");
        }
    }

    #[test]
    fn identical_requests_simulate_once() {
        let plan = RunPlan::with_workers(2);
        let a = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        let b = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        assert_eq!(plan.sims_run(), 1);
        assert_eq!(plan.memo_hits(), 1);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(
            a.pooled_latency_ms().values(),
            b.pooled_latency_ms().values()
        );
    }

    #[test]
    fn different_tweaks_do_not_collide() {
        let plan = RunPlan::with_workers(2);
        let a = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        let b = plan.run_cluster_with(SystemSpec::no_harvest(), tiny(), 9, |cfg| {
            cfg.requests_per_vm = 20;
        });
        assert_eq!(plan.sims_run(), 2);
        assert_ne!(a.completed(), b.completed());
    }

    #[test]
    fn renamed_variant_is_a_distinct_row() {
        // Same config, different figure label: both must simulate (the
        // label is part of the row identity even though metrics match).
        let plan = RunPlan::with_workers(1);
        let a = plan.run_cluster(SystemSpec::no_harvest(), tiny(), 9);
        let b = plan.run_cluster(SystemSpec::no_harvest_named("No-Move"), tiny(), 9);
        assert_eq!(plan.sims_run(), 2);
        assert_eq!(a.system(), "NoHarvest");
        assert_eq!(b.system(), "No-Move");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let one = RunPlan::with_workers(1);
        let four = RunPlan::with_workers(4);
        let a = one.run_cluster(SystemSpec::hardharvest_block(), tiny(), 3);
        let b = four.run_cluster(SystemSpec::hardharvest_block(), tiny(), 3);
        assert_eq!(
            a.pooled_latency_ms().values(),
            b.pooled_latency_ms().values()
        );
        assert_eq!(a.avg_busy_cores(), b.avg_busy_cores());
    }

    #[test]
    fn concurrent_identical_requests_share_one_simulation() {
        let plan: &'static RunPlan = RunPlan::leaked(2);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    plan.run_cluster(SystemSpec::harvest_block(), tiny(), 5)
                })
            })
            .collect();
        let runs: Vec<ClusterMetrics> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Racing threads either hit the memo fast path or block inside the
        // same cell's initialization — never a duplicate simulation.
        assert_eq!(plan.sims_run(), 1);
        assert!(plan.memo_hits() <= 3);
        for r in &runs[1..] {
            assert_eq!(
                r.pooled_latency_ms().values(),
                runs[0].pooled_latency_ms().values()
            );
        }
    }
}
