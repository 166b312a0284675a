//! Unit-cost replays on a cluster workload's own streams.
//!
//! Each replay drives one layer with the request plans, phase streams and
//! batch-unit streams the workload's servers use (same seed derivation,
//! catalog, batch jobs, visibility and replacement policy), times it over
//! several independent trials, and reports a median unit cost with its
//! spread. None of them uses uniform random keys.

use std::hint::black_box;
use std::time::Instant;

use hh_core::{ServerConfig, SystemSpec};
use hh_hwqueue::{Controller, ControllerConfig, VmKind};
use hh_mem::{Access, CoreMem, Dram, Llc, Visibility};
use hh_sim::{CoreId, Cycles, EventQueue, Rng64, VmId};
use hh_workload::{BatchCatalog, RequestPlan, ServiceCatalog, ServiceId, StreamSpec};

use crate::host::{median, spread};

/// Independent trials per unit cost.
pub const TRIALS: usize = 5;
/// Request plans replayed per trial (50 per Primary VM).
const PLANS: usize = 400;
/// Batch units replayed per trial, spread over the workload's jobs.
const UNITS: usize = 800;
/// Requests per Primary VM that only warm a replayed core's caches.
const MEM_WARM: usize = 10;
/// Requests per Primary VM timed on a replayed core.
const MEM_TIMED: usize = 20;
/// Pending events held in the queue: one arrival per Primary VM plus about
/// one completion per core of a 36-core server.
const EVENT_DEPTH: usize = 48;
/// Push+pop pairs per event-queue trial.
const EVENT_PAIRS: usize = 1_000_000;

/// One unit cost: a value per trial.
#[derive(Debug, Clone, Default)]
pub struct Cost {
    pub trials: Vec<f64>,
}

impl Cost {
    pub fn median(&self) -> f64 {
        if self.trials.is_empty() {
            0.0
        } else {
            median(&self.trials)
        }
    }

    pub fn spread(&self) -> f64 {
        spread(&self.trials)
    }
}

/// The workload's request and batch-unit streams.
#[derive(Debug)]
pub struct StreamMix {
    pub plans: Vec<RequestPlan>,
    pub units: Vec<StreamSpec>,
    pub plan_us: Cost,
}

impl StreamMix {
    /// Generates the request plans the way a server does (service of VM
    /// `v` is `v mod services`, rng `stream(seed, 0xFEED)`, one running
    /// invocation counter; arrivals taken round-robin over the Primary
    /// VMs), timing `RequestPlan::generate`; and the unit streams of every
    /// server's batch job.
    pub fn new(configs: &[ServerConfig]) -> Self {
        let cfg = &configs[0];
        let catalog = ServiceCatalog::of(cfg.catalog);
        let mut plan_us = Cost::default();
        let mut plans = Vec::new();
        for _ in 0..TRIALS {
            let mut rng = Rng64::stream(cfg.seed, 0xFEED);
            let t0 = Instant::now();
            plans = (0..PLANS as u64)
                .map(|inv| {
                    let vm = inv as usize % cfg.primary_vms;
                    let service = ServiceId((vm % catalog.len()) as u8);
                    RequestPlan::generate(
                        service,
                        catalog.get(service),
                        VmId::from(vm),
                        inv,
                        &mut rng,
                    )
                })
                .collect();
            plan_us
                .trials
                .push(t0.elapsed().as_secs_f64() * 1e6 / PLANS as f64);
        }
        let jobs = BatchCatalog::paper();
        let per_job = UNITS / configs.len();
        let units = configs
            .iter()
            .flat_map(|c| {
                let job = *jobs.get(c.batch_job);
                let harvest = VmId::from(c.primary_vms);
                (0..per_job as u64).map(move |u| job.unit_stream(harvest, u))
            })
            .collect();
        StreamMix {
            plans,
            units,
            plan_us,
        }
    }

    fn phase_streams(&self) -> impl Iterator<Item = &StreamSpec> {
        self.plans
            .iter()
            .flat_map(|p| p.phases.iter().map(|ph| &ph.stream))
    }

    /// Mean references per request plan.
    pub fn refs_per_req(&self) -> f64 {
        let refs: u64 = self.phase_streams().map(|s| u64::from(s.accesses)).sum();
        refs as f64 / self.plans.len() as f64
    }

    /// Mean references per batch unit.
    pub fn refs_per_unit(&self) -> f64 {
        let refs: u64 = self.units.iter().map(|s| u64::from(s.accesses)).sum();
        refs as f64 / self.units.len() as f64
    }

    /// Mean phases per request.
    pub fn phases_per_req(&self) -> f64 {
        let phases: usize = self.plans.iter().map(|p| p.phases.len()).sum();
        phases as f64 / self.plans.len() as f64
    }

    /// `StreamSpec::iter` cost per reference, over the request phases and
    /// over the batch units.
    pub fn stream_costs(&self) -> (Cost, Cost) {
        let per_ref = |streams: &[&StreamSpec]| {
            let refs: u64 = streams.iter().map(|s| u64::from(s.accesses)).sum();
            let mut cost = Cost::default();
            for _ in 0..TRIALS {
                let t0 = Instant::now();
                let mut sink = 0u64;
                for s in streams {
                    for acc in s.iter() {
                        sink = sink.wrapping_add(acc.addr);
                    }
                }
                black_box(sink);
                cost.trials
                    .push(t0.elapsed().as_secs_f64() * 1e9 / refs as f64);
            }
            cost
        };
        let phases: Vec<&StreamSpec> = self.phase_streams().collect();
        let units: Vec<&StreamSpec> = self.units.iter().collect();
        (per_ref(&phases), per_ref(&units))
    }
}

/// `CoreMem` costs of one system, split by stream kind.
#[derive(Debug, Default)]
pub struct MemCosts {
    /// ns per `CoreMem::access` on request-phase references.
    pub req_ns: Cost,
    /// ns per `CoreMem::access` on batch-unit references.
    pub unit_ns: Cost,
    /// ns per flush call (region flush when partitioned, else full flush);
    /// empty when the system never flushes.
    pub flush_ns: Cost,
}

/// The shared LLC of a server, partitioned per VM like `ServerSim` does.
fn server_llc(cfg: &ServerConfig) -> Llc {
    let mut vm_cores = vec![cfg.cores_per_primary; cfg.primary_vms];
    vm_cores.push(cfg.cores - cfg.primary_vms * cfg.cores_per_primary);
    let mut llc = cfg.llc;
    llc.cores = cfg.cores;
    let geometry = llc.as_cache();
    Llc::new(geometry.sets(), geometry.ways, &vm_cores)
}

/// Replays the cores of `cfg`'s server, one per Primary VM: each VM runs
/// one service, so a core sees only that VM's request plans (Primary
/// visibility), interleaved with `units_per_req` batch units (Harvest
/// visibility when the system partitions, at the server's DRAM weight)
/// and `flushes_per_req` cross-VM flushes, the ratios the simulated
/// cluster produced. The cores share one LLC, and each core's first
/// requests only warm it up.
pub fn core_mem(
    cfg: &ServerConfig,
    mix: &StreamMix,
    units_per_req: f64,
    flushes_per_req: f64,
) -> MemCosts {
    let sys: SystemSpec = cfg.system;
    let policy = sys.cache_policy();
    let collect = |s: &StreamSpec| s.iter().collect::<Vec<Access>>();
    let per_vm: Vec<Vec<Vec<Vec<Access>>>> = (0..cfg.primary_vms)
        .map(|vm| {
            mix.plans
                .iter()
                .filter(|p| p.vm.index() == vm)
                .take(MEM_WARM + MEM_TIMED)
                .map(|p| p.phases.iter().map(|ph| collect(&ph.stream)).collect())
                .collect()
        })
        .collect();
    let units: Vec<Vec<Access>> = mix.units.iter().map(collect).collect();
    let unit_vis = if sys.opts.partition {
        Visibility::Harvest
    } else {
        Visibility::Primary
    };
    let mut out = MemCosts::default();
    for _ in 0..TRIALS {
        let mut llc = server_llc(cfg);
        let mut dram = Dram::default();
        let mut now = Cycles::ZERO;
        let mut run = |refs: &[Access], vis: Visibility, mem: &mut CoreMem| {
            let t0 = Instant::now();
            let mut stall = Cycles::ZERO;
            for &acc in refs {
                stall += mem.access(now, acc, vis, &mut llc, &mut dram).stall;
            }
            let ns = t0.elapsed().as_secs_f64() * 1e9;
            now += stall + Cycles::new(1000);
            ns
        };
        // (ns, count) of request references, unit references, flushes.
        let mut sums = [(0.0, 0.0); 3];
        let mut next_unit = 0;
        for requests in &per_vm {
            let mut mem = CoreMem::new(&cfg.hierarchy, cfg.harvest_frac, policy);
            let (mut units_due, mut flushes_due) = (0.0, 0.0);
            for (i, phases) in requests.iter().enumerate() {
                let weight = if i < MEM_WARM { 0.0 } else { 1.0 };
                let mut tally = |k: usize, ns: f64, n: usize| {
                    sums[k].0 += weight * ns;
                    sums[k].1 += weight * n as f64;
                };
                for refs in phases {
                    tally(0, run(refs, Visibility::Primary, &mut mem), refs.len());
                }
                // Batch units and flushes land between requests.
                units_due += units_per_req;
                while units_due >= 1.0 {
                    let refs = &units[next_unit % units.len()];
                    next_unit += 1;
                    mem.set_dram_weight(cfg.batch_stall_scale.max(1.0));
                    tally(1, run(refs, unit_vis, &mut mem), refs.len());
                    mem.set_dram_weight(1.0);
                    units_due -= 1.0;
                }
                flushes_due += flushes_per_req;
                while flushes_due >= 1.0 {
                    let t0 = Instant::now();
                    black_box(if sys.opts.partition {
                        mem.flush_harvest_region()
                    } else {
                        mem.flush_all()
                    });
                    tally(2, t0.elapsed().as_secs_f64() * 1e9, 1);
                    flushes_due -= 1.0;
                }
            }
        }
        let [req, unit, flush] = sums;
        out.req_ns.trials.push(req.0 / req.1);
        if unit.1 > 0.0 {
            out.unit_ns.trials.push(unit.0 / unit.1);
        }
        if flush.1 > 0.0 {
            out.flush_ns.trials.push(flush.0 / flush.1);
        }
    }
    out
}

/// Phase and I/O durations of the plans, the intervals a server schedules
/// its events at.
fn event_gaps(mix: &StreamMix) -> Vec<Cycles> {
    mix.plans
        .iter()
        .flat_map(|p| {
            p.phases
                .iter()
                .flat_map(|ph| std::iter::once(ph.compute).chain(ph.io_after))
        })
        .collect()
}

/// `EventQueue` push+pop pair cost at server depth, with the workload's
/// own event spacing and a payload the size of the server's event enum.
pub fn event_queue(mix: &StreamMix) -> Cost {
    let gaps = event_gaps(mix);
    let mut cost = Cost::default();
    for _ in 0..TRIALS {
        let mut q: EventQueue<[u64; 3]> = EventQueue::with_capacity(4096);
        for (i, gap) in gaps.iter().take(EVENT_DEPTH).enumerate() {
            q.push(*gap, [i as u64; 3]);
        }
        let t0 = Instant::now();
        for i in 0..EVENT_PAIRS {
            let (at, ev) = q.pop().expect("queue stays at depth");
            q.push(at + gaps[i % gaps.len()], black_box(ev));
        }
        cost.trials
            .push(t0.elapsed().as_secs_f64() * 1e9 / EVENT_PAIRS as f64);
        black_box(q.len());
    }
    cost
}

/// The server's request controller, built as `ServerSim::new` builds it.
fn server_controller(cfg: &ServerConfig) -> Controller {
    let base = ControllerConfig::table1();
    let mut ctrl = Controller::new(ControllerConfig {
        chunks: cfg.rq_chunks,
        max_vms: base.max_vms.min(cfg.rq_chunks),
        ..base
    });
    let mut core = 0usize;
    for vm in 0..=cfg.primary_vms {
        let (kind, cores) = if vm == cfg.primary_vms {
            (
                VmKind::Harvest,
                cfg.cores - cfg.primary_vms * cfg.cores_per_primary,
            )
        } else {
            (VmKind::Primary, cfg.cores_per_primary)
        };
        ctrl.register_vm(VmId::from(vm), kind, cores);
        for _ in 0..cores {
            ctrl.qm_mut(VmId::from(vm)).bind_core(CoreId::from(core));
            core += 1;
        }
    }
    ctrl
}

/// Hardware-queue operations per request: one enqueue, a dequeue per
/// phase, a block and a ready per I/O call, one completion.
pub fn hwqueue_ops_per_req(mix: &StreamMix) -> f64 {
    3.0 * mix.phases_per_req()
}

/// Cost of one hardware-queue operation, replaying each plan's lifecycle
/// (enqueue, dequeue, then block/ready/dequeue per I/O call, complete)
/// with one request in flight per Primary VM.
pub fn hwqueue(cfg: &ServerConfig, mix: &StreamMix) -> Cost {
    let mut cost = Cost::default();
    for _ in 0..TRIALS {
        let mut ctrl = server_controller(cfg);
        let mut ops = 0u64;
        let t0 = Instant::now();
        for round in 0..20u64 {
            for (i, plan) in mix.plans.iter().enumerate() {
                let vm = VmId::from(plan.vm.index());
                let token = round * mix.plans.len() as u64 + i as u64 + 1;
                ctrl.enqueue(vm, token, Cycles::new(token));
                let qm = ctrl.qm_mut(vm);
                black_box(qm.dequeue());
                for _ in 1..plan.phases.len() {
                    qm.mark_blocked(token);
                    qm.mark_ready(token);
                    black_box(qm.dequeue());
                }
                qm.complete(token);
                ops += 3 * plan.phases.len() as u64;
            }
        }
        cost.trials
            .push(t0.elapsed().as_secs_f64() * 1e9 / ops as f64);
    }
    cost
}
