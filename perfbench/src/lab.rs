//! Replica of the Figure 14 lab's trace recording, built from public
//! crate APIs, so the lab's layers can be timed one at a time on the
//! lab's own streams. The replica's hit rates must equal
//! `ReplacementLab::run`'s exactly, which proves it replays the same
//! trace.

use std::hint::black_box;
use std::time::Instant;

use hh_core::{PolicyHitRates, ReplacementLab};
use hh_mem::{BatchRef, BeladyCache, CacheConfig, PolicyKind, SetAssocCache, TraceOp, WayMask};
use hh_sim::{Rng64, VmId};
use hh_workload::{BatchCatalog, BatchJob, RequestPlan, ServiceCatalog, ServiceId};

use crate::replay::{Cost, TRIALS};

/// A run of L2-bound references under one allowed mask, or a flush.
enum Op {
    Run(Vec<BatchRef>, WayMask),
    Flush(WayMask),
}

/// One L1-filter input: a reference, or an invalidation of both filters.
enum L1Op {
    Ref {
        line: u64,
        shared: bool,
        write: bool,
        ifetch: bool,
        harvest: bool,
    },
    InvalidateAll,
}

/// One service's recorded lab inputs.
struct ServiceTrace {
    /// Invocations that were followed by a harvest episode.
    episodes: Vec<u64>,
    plans: Vec<RequestPlan>,
    l1: Vec<L1Op>,
    l2: Vec<Op>,
}

/// Geometry the lab uses (see `ReplacementLab::default`).
struct Geometry {
    l2_sets: usize,
    l2_ways: usize,
    harvest: WayMask,
}

impl Geometry {
    fn new() -> Self {
        let l2 = CacheConfig::l2();
        Geometry {
            l2_sets: l2.sets(),
            l2_ways: l2.ways,
            harvest: WayMask::fraction(l2.ways, 0.5),
        }
    }
}

/// The lab's batch-job pairing for a service.
fn paired_job(name: &str, batch: &BatchCatalog) -> BatchJob {
    *batch
        .by_name(match name {
            "Text" => "BFS",
            "SGraph" => "CC",
            "User" => "DC",
            "PstStr" => "PRank",
            "UsrMnt" => "LRTrain",
            "HomeT" => "RndFTrain",
            "CPost" => "Hadoop",
            _ => "MUMmer",
        })
        .expect("paired job exists")
}

/// References of a harvest episode.
const EPISODE_REFS: usize = 2000;

fn filters() -> (SetAssocCache, SetAssocCache) {
    let (d, i) = (CacheConfig::l1d(), CacheConfig::l1i());
    (
        SetAssocCache::new(d.sets() / 8, d.ways, PolicyKind::Lru, WayMask::EMPTY),
        SetAssocCache::new(i.sets() / 8, i.ways, PolicyKind::Lru, WayMask::EMPTY),
    )
}

fn push_ref(ops: &mut Vec<Op>, key: u64, shared: bool, allowed: WayMask) {
    let r = BatchRef {
        key,
        shared,
        write: false,
    };
    if let Some(Op::Run(refs, a)) = ops.last_mut() {
        if *a == allowed {
            refs.push(r);
            return;
        }
    }
    ops.push(Op::Run(vec![r], allowed));
}

/// Runs the L1 filters over `l1`, emitting the L2 trace (filter misses,
/// plus a harvest-region flush wherever the filters are invalidated) when
/// `l2` is given. Returns the number of filter accesses.
fn filter(l1: &[L1Op], geo: &Geometry, mut l2: Option<&mut Vec<Op>>) -> u64 {
    let (mut f_l1d, mut f_l1i) = filters();
    let all = WayMask::all(geo.l2_ways);
    let mut accesses = 0;
    for op in l1 {
        match *op {
            L1Op::Ref {
                line,
                shared,
                write,
                ifetch,
                harvest,
            } => {
                let l1 = if ifetch { &mut f_l1i } else { &mut f_l1d };
                let allowed = if harvest {
                    WayMask::fraction(l1.ways(), 0.5)
                } else {
                    WayMask::all(l1.ways())
                };
                accesses += 1;
                if !l1.access(line, shared, allowed, write).hit {
                    if let Some(ops) = l2.as_deref_mut() {
                        push_ref(ops, line, shared, if harvest { geo.harvest } else { all });
                    }
                }
            }
            L1Op::InvalidateAll => {
                if let Some(ops) = l2.as_deref_mut() {
                    ops.push(Op::Flush(geo.harvest));
                }
                f_l1d.invalidate_all();
                f_l1i.invalidate_all();
            }
        }
    }
    accesses
}

/// Records one service's trace exactly as the lab does.
fn record(
    lab: &ReplacementLab,
    geo: &Geometry,
    service: ServiceId,
    catalog: &ServiceCatalog,
    job: &BatchJob,
) -> ServiceTrace {
    let profile = catalog.get(service);
    let mut rng = Rng64::stream(0x14D, service.index() as u64);
    let (mut plans, mut episodes, mut l1) = (Vec::new(), Vec::new(), Vec::new());
    let l1_ref = |acc: hh_mem::Access, harvest| L1Op::Ref {
        line: acc.line(),
        shared: acc.class.is_shared(),
        write: acc.kind.is_write(),
        ifetch: acc.kind.is_ifetch(),
        harvest,
    };
    for inv in 0..lab.invocations as u64 {
        let invocation = inv * 8 + service.index() as u64;
        let plan = RequestPlan::generate(service, profile, VmId(0), invocation, &mut rng);
        for phase in &plan.phases {
            l1.extend(phase.stream.iter().map(|acc| l1_ref(acc, false)));
        }
        plans.push(plan);
        if rng.chance(0.7) {
            episodes.push(inv);
            l1.push(L1Op::InvalidateAll);
            let spec = job.unit_stream(VmId(8), inv);
            l1.extend(spec.iter().take(EPISODE_REFS).map(|acc| l1_ref(acc, true)));
            l1.push(L1Op::InvalidateAll);
        }
    }
    let mut l2 = Vec::new();
    filter(&l1, geo, Some(&mut l2));
    ServiceTrace {
        episodes,
        plans,
        l1,
        l2,
    }
}

fn l2_refs(ops: &[Op]) -> impl Iterator<Item = &BatchRef> {
    ops.iter().flat_map(|op| match op {
        Op::Run(refs, _) => refs.as_slice(),
        Op::Flush(_) => &[],
    })
}

fn replay_online(ops: &[Op], geo: &Geometry, policy: PolicyKind) -> f64 {
    let mut l2 = SetAssocCache::new(geo.l2_sets, geo.l2_ways, policy, geo.harvest);
    for op in ops {
        match op {
            Op::Run(refs, allowed) => {
                l2.access_run(refs, *allowed);
            }
            Op::Flush(mask) => {
                l2.invalidate_ways(*mask);
            }
        }
    }
    l2.stats().hit_rate()
}

fn belady_trace(ops: &[Op], geo: &Geometry) -> Vec<TraceOp> {
    let all = WayMask::all(geo.l2_ways);
    l2_refs(ops)
        .map(|r| TraceOp::Access {
            key: r.key,
            allowed: all,
        })
        .collect()
}

/// Work counts and unit costs of the lab's layers.
#[derive(Debug, Default)]
pub struct LabLayers {
    pub plans: u64,
    /// Harvest episodes (batch-unit streams) in the trace.
    pub episodes: u64,
    pub req_refs: u64,
    pub unit_refs: u64,
    pub l2_refs: u64,
    pub plan_us: Cost,
    pub stream_ns: Cost,
    pub unit_stream_ns: Cost,
    pub l1_ns: Cost,
    /// `access_run` ns per reference: LRU, RRIP, HardHarvest.
    pub access_run_ns: [Cost; 3],
    pub belady_ns: Cost,
    /// Whether the replica reproduced the lab's hit rates exactly.
    pub matches_lab: bool,
}

impl LabLayers {
    /// L1-filter accesses: every request and episode reference.
    pub fn l1_accesses(&self) -> u64 {
        self.req_refs + self.unit_refs
    }
}

/// The online policies the lab compares: LRU, SRRIP, HardHarvest.
fn policies() -> [PolicyKind; 3] {
    [
        PolicyKind::Lru,
        PolicyKind::Rrip,
        PolicyKind::hardharvest_default(),
    ]
}

/// Seconds since `t0`.
fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Records the lab's trace service by service, checks it against `rates`
/// (the lab's own output), and times each layer on it. Only one service's
/// trace is alive at a time, as in the lab.
pub fn layers(lab: &ReplacementLab, rates: &[PolicyHitRates]) -> LabLayers {
    let policies = policies();
    let geo = Geometry::new();
    let catalog = ServiceCatalog::socialnet();
    let batch = BatchCatalog::paper();
    let mut out = LabLayers {
        matches_lab: catalog.len() == rates.len(),
        ..LabLayers::default()
    };
    // Seconds per trial, per stage: plan, stream, unit stream, L1, the
    // three online policies, Belady.
    let mut secs = [[0.0f64; 8]; TRIALS];

    for ((service, profile), want) in catalog.iter().zip(rates) {
        let job = paired_job(profile.name, &batch);
        let t = record(lab, &geo, service, &catalog, &job);
        let got = [
            replay_online(&t.l2, &geo, policies[0]),
            replay_online(&t.l2, &geo, policies[1]),
            replay_online(&t.l2, &geo, policies[2]),
            BeladyCache::new(geo.l2_sets, geo.l2_ways)
                .run(&belady_trace(&t.l2, &geo))
                .hit_rate(),
        ];
        let lab_rates = [want.lru, want.rrip, want.hardharvest, want.belady];
        if got
            .iter()
            .zip(lab_rates)
            .any(|(g, w)| g.to_bits() != w.to_bits())
        {
            eprintln!(
                "lab replica diverges on {}: got {got:?}, lab {lab_rates:?}",
                want.service
            );
            out.matches_lab = false;
        }
        let phases = || t.plans.iter().flat_map(|p| &p.phases);
        let units = || t.episodes.iter().map(|&inv| job.unit_stream(VmId(8), inv));
        out.plans += t.plans.len() as u64;
        out.episodes += t.episodes.len() as u64;
        out.req_refs += phases()
            .map(|ph| u64::from(ph.stream.accesses))
            .sum::<u64>();
        out.unit_refs += units()
            .map(|u| u.iter().take(EPISODE_REFS).count() as u64)
            .sum::<u64>();
        out.l2_refs += l2_refs(&t.l2).count() as u64;
        let belady = belady_trace(&t.l2, &geo);

        for trial in secs.iter_mut() {
            // RequestPlan::generate on the lab's own rng sequence.
            let mut rng = Rng64::stream(0x14D, service.index() as u64);
            for inv in 0..lab.invocations as u64 {
                let invocation = inv * 8 + service.index() as u64;
                let t0 = Instant::now();
                let plan = RequestPlan::generate(service, profile, VmId(0), invocation, &mut rng);
                trial[0] += since(t0);
                black_box(plan);
                black_box(rng.chance(0.7));
            }
            let t0 = Instant::now();
            let sink = phases().fold(0u64, |s, ph| {
                ph.stream.iter().fold(s, |s, a| s.wrapping_add(a.addr))
            });
            trial[1] += since(t0);
            let t0 = Instant::now();
            let sink = units().fold(sink, |s, u| {
                u.iter()
                    .take(EPISODE_REFS)
                    .fold(s, |s, a| s.wrapping_add(a.addr))
            });
            trial[2] += since(t0);
            black_box(sink);
            let t0 = Instant::now();
            black_box(filter(&t.l1, &geo, None));
            trial[3] += since(t0);
            for (k, policy) in policies.into_iter().enumerate() {
                let t0 = Instant::now();
                black_box(replay_online(&t.l2, &geo, policy));
                trial[4 + k] += since(t0);
            }
            let t0 = Instant::now();
            black_box(BeladyCache::new(geo.l2_sets, geo.l2_ways).run(&belady));
            trial[7] += since(t0);
        }
    }
    for trial in &secs {
        let per = |s: f64, n: u64, scale: f64| s * scale / n as f64;
        out.plan_us.trials.push(per(trial[0], out.plans, 1e6));
        out.stream_ns.trials.push(per(trial[1], out.req_refs, 1e9));
        out.unit_stream_ns
            .trials
            .push(per(trial[2], out.unit_refs, 1e9));
        out.l1_ns.trials.push(per(trial[3], out.l1_accesses(), 1e9));
        for k in 0..3 {
            out.access_run_ns[k]
                .trials
                .push(per(trial[4 + k], out.l2_refs, 1e9));
        }
        out.belady_ns.trials.push(per(trial[7], out.l2_refs, 1e9));
    }
    out
}
