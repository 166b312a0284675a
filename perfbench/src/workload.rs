//! The three benchmark workloads. Each is a fixed batch of simulations
//! submitted at once; inside every server the simulated load is the
//! simulator's own open-loop bursty `LoadGen`.

use hh_core::{
    resolved_configs, ClusterMetrics, ReplacementLab, RunPlan, Scale, ServerConfig, ServerSim,
    SystemSpec,
};

use crate::host::timed;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The five evaluated systems at quick scale and peak load.
    PeakFive,
    /// HardHarvest-Block and Harvest-Block at light load.
    LightHarvest,
    /// The Figure 14 replacement-policy lab, ten times its figure size.
    PolicyLab,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PeakFive,
        Workload::LightHarvest,
        Workload::PolicyLab,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PeakFive => "peak-five",
            Workload::LightHarvest => "light-harvest",
            Workload::PolicyLab => "policy-lab",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The cluster batch, or `None` for the lab.
    pub fn clusters(self) -> Option<Clusters> {
        match self {
            Workload::PeakFive => Some(Clusters {
                systems: SystemSpec::evaluated_five(),
                scale: Scale::quick(),
            }),
            Workload::LightHarvest => Some(Clusters {
                systems: vec![SystemSpec::hardharvest_block(), SystemSpec::harvest_block()],
                scale: Scale {
                    requests_per_vm: 100,
                    ..Scale::quick().light_load()
                },
            }),
            Workload::PolicyLab => None,
        }
    }
}

/// The lab instance of `seed`: the lab's own trace generator has a fixed
/// seed, so the benchmark seed picks the invocation count (392..=407).
pub fn lab(seed: u64) -> ReplacementLab {
    let mut lab = ReplacementLab::default();
    lab.invocations = 392 + (seed % 16) as usize;
    lab
}

/// Invocations the lab simulates (per service × services).
pub fn lab_invocations(lab: &ReplacementLab) -> u64 {
    (lab.invocations * hh_workload::ServiceCatalog::socialnet().len()) as u64
}

/// The seed of the `k`-th cluster of a batch. Clusters get independent
/// arrivals: with one shared seed their simulated work moves in lockstep
/// (correlation above 0.99 between light-harvest's two clusters), so the
/// batch's work would vary between seeds as much as one cluster's does.
/// The shift stays clear of the per-server bits `resolved_configs` mixes
/// in at bit 32.
fn cluster_seed(seed: u64, k: usize) -> u64 {
    seed ^ ((k as u64 + 1) << 48)
}

/// A batch of cluster runs submitted together.
#[derive(Debug, Clone)]
pub struct Clusters {
    pub systems: Vec<SystemSpec>,
    pub scale: Scale,
}

/// One cluster batch's results and completion status.
#[derive(Debug)]
pub struct ClusterResults {
    pub metrics: Vec<ClusterMetrics>,
    /// Per cluster: completed fewer requests than it was asked for.
    pub incomplete: Vec<bool>,
    /// Simulated requests completed across the batch.
    pub requests: u64,
}

impl Clusters {
    /// The per-server configurations of every cluster, in system order.
    pub fn configs(&self, seed: u64) -> Vec<Vec<ServerConfig>> {
        self.systems
            .iter()
            .enumerate()
            .map(|(k, &sys)| resolved_configs(sys, self.scale, cluster_seed(seed, k), |_| {}))
            .collect()
    }

    /// Requests each cluster must complete: servers × Primary VMs ×
    /// requests per VM.
    pub fn expected_requests(&self) -> u64 {
        let vms = ServerConfig::table1(SystemSpec::no_harvest()).primary_vms;
        (self.scale.servers * vms * self.scale.requests_per_vm) as u64
    }

    /// Set-up cost: config resolution plus every `ServerSim::new`, in
    /// seconds. Each server is dropped outside the timed span, so only one
    /// is alive at a time.
    pub fn setup_seconds(&self, seed: u64) -> f64 {
        let mut total = 0.0;
        let (configs, t) = timed(|| self.configs(seed));
        total += t;
        for cfg in configs.into_iter().flatten() {
            let (sim, t) = timed(|| ServerSim::new(cfg));
            total += t;
            drop(std::hint::black_box(sim));
        }
        total
    }

    /// Submits every cluster at once to `plan`, one submitting thread per
    /// cluster, and returns each cluster's result with its `run_cluster`
    /// wall time.
    pub fn run_on(&self, plan: &RunPlan, seed: u64) -> (ClusterResults, Vec<f64>) {
        let runs: Vec<(ClusterMetrics, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .systems
                .iter()
                .enumerate()
                .map(|(k, &sys)| {
                    let seed = cluster_seed(seed, k);
                    s.spawn(move || timed(|| plan.run_cluster(sys, self.scale, seed)))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cluster thread panicked"))
                .collect()
        });
        let (metrics, spans) = runs.into_iter().unzip();
        (self.results(metrics), spans)
    }

    /// Wraps finished clusters with their completion status.
    pub fn results(&self, metrics: Vec<ClusterMetrics>) -> ClusterResults {
        let want = self.expected_requests();
        ClusterResults {
            incomplete: metrics.iter().map(|m| m.completed() < want).collect(),
            requests: metrics.iter().map(ClusterMetrics::completed).sum(),
            metrics,
        }
    }

    /// The scale knobs as a JSON object.
    pub fn scale_json(&self) -> String {
        format!(
            "{{\"servers\":{},\"requests_per_vm\":{},\"rps_per_vm\":{},\"systems\":[{}]}}",
            self.scale.servers,
            self.scale.requests_per_vm,
            self.scale.rps_per_vm,
            self.systems
                .iter()
                .map(|s| format!("\"{}\"", s.name))
                .collect::<Vec<_>>()
                .join(","),
        )
    }
}
