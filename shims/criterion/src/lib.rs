//! Offline stand-in for `criterion`.
//!
//! Provides the `black_box` / `Criterion` / `criterion_group!` /
//! `criterion_main!` surface the bench targets use, backed by a simple
//! fixed-iteration timer instead of criterion's statistical engine.
//! Each `Bencher::iter` call runs a short warmup, then a measured batch,
//! and prints mean wall time per iteration. Removing the
//! `[patch.crates-io]` entries in the workspace manifest restores the
//! real criterion.

#[expect(clippy::disallowed_types, reason = "a benchmark timer measures host wall time by design")]
use std::time::Instant;

/// Opaque value barrier (re-exported `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Timing context handed to each benchmark closure.
#[derive(Debug, Default)]
pub struct Bencher {
    name: String,
}

impl Bencher {
    /// Times `f`: 2 warmup calls, then a measured batch sized so the
    /// batch takes roughly 100ms (capped at 1000 iterations).
    #[expect(clippy::disallowed_types, reason = "a benchmark timer measures host wall time by design")]
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        black_box(f());
        let probe_start = Instant::now();
        black_box(f());
        let probe = probe_start.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.1 / probe) as u64).clamp(1, 1000);
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per_iter = start.elapsed().as_secs_f64() / iters as f64;
        println!("{:<40} {:>12.0} ns/iter ({} iters)", self.name, per_iter * 1e9, iters);
    }
}

/// Group of related benchmarks sharing a name prefix.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    prefix: String,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Runs one named benchmark in the group.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            name: format!("{}/{}", self.prefix, name),
        };
        f(&mut b);
        self
    }

    /// Ends the group (no-op; exists for API parity).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            prefix: name.to_string(),
            _parent: self,
        }
    }

    /// Runs one named benchmark.
    pub fn bench_function<F>(&mut self, name: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            name: name.to_string(),
        };
        f(&mut b);
        self
    }
}

/// Bundles benchmark functions into one group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
    ($name:ident; $($rest:tt)*) => {
        compile_error!("criterion shim: configured groups are not supported");
    };
}

/// Entry point running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
