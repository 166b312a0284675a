//! # hardharvest — a Rust reproduction of *HardHarvest: Hardware-Supported
//! Core Harvesting for Microservices* (ISCA 2025)
//!
//! This facade crate re-exports the full public API of the workspace; see
//! [`hh_core`] for the top-level cluster/experiment interface and the
//! README for the architecture overview. Its `figures` binary is the
//! figure harness: it regenerates every table and figure of the paper.
//!
//! ```no_run
//! use hardharvest::{run_cluster, Scale, SystemSpec};
//!
//! let metrics = run_cluster(SystemSpec::hardharvest_block(), Scale::quick(), 42);
//! println!("P99 = {:.2} ms", metrics.pooled_latency_ms().p99());
//! ```

#![warn(missing_docs)]

pub use hh_core::*;

/// The substrate layers, for users who want to work below the top-level
/// API (cache experiments, controller studies, custom workloads).
pub mod layers {
    pub use hh_hwqueue as hwqueue;
    pub use hh_mem as mem;
    pub use hh_noc as noc;
    pub use hh_sim as sim;
    pub use hh_workload as workload;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_top_level_api() {
        // Compile-time check that key types are reachable.
        fn assert_exists<T>() {}
        assert_exists::<crate::SystemSpec>();
        assert_exists::<crate::Scale>();
        assert_exists::<crate::Experiments>();
        assert_exists::<crate::layers::mem::WayMask>();
    }
}
