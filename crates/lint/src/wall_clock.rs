//! wall-clock-in-sim: host time sources leak nondeterminism into simulated
//! time. Only hh-trace's exec collector and the bench harness read the host
//! clock, each site under a justified `#[expect]`.

use std::time::Duration;
#[expect(clippy::disallowed_types)]
use std::time::Instant;
#[expect(clippy::disallowed_types)]
use std::time::SystemTime as Wall;

pub fn measure() -> f64 {
    #[expect(clippy::disallowed_types)]
    let t0 = Instant::now();
    t0.elapsed().as_secs_f64()
}

pub fn renamed() -> bool {
    #[expect(clippy::disallowed_types)]
    let now = Wall::now();
    now.elapsed().is_ok()
}

pub fn qualified() -> bool {
    #[expect(clippy::disallowed_types)]
    let t = std::time::Instant::now();
    #[expect(clippy::disallowed_types)]
    let e = std::time::SystemTime::UNIX_EPOCH;
    t.elapsed() < e.elapsed().unwrap_or_default()
}

pub fn durations_are_fine(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// The simulator's own clock type is not the host clock.
pub struct Instant2 {
    cycles: u64,
}

pub fn sim_clock(c: &Instant2) -> u64 {
    c.cycles
}

#[cfg(test)]
mod tests {
    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "tests are not exempt from this rule"
    )]
    fn timing_inside_tests_needs_an_expect() {
        let _t0 = std::time::Instant::now();
    }
}
