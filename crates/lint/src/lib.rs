//! Fixture corpus for the workspace clippy policy (DESIGN.md §12).
//!
//! Each module exercises one rule of `clippy.toml` and the
//! `[workspace.lints.clippy]` levels. Every expected finding sits under an
//! `#[expect(clippy::<lint>)]`, and every other line must stay clean. Under
//! `cargo clippy -- -D warnings` the check runs both ways:
//!
//! * a finding the policy no longer produces leaves its expectation
//!   unfulfilled (`unfulfilled_lint_expectations`);
//! * a finding nobody expected is a denied lint.
//!
//! So dropping an entry from `clippy.toml`, or removing any `#[expect]`
//! here, fails the gate. Nothing in this crate is ever called.

pub mod allows;
pub mod collections;
pub mod float_eq;
pub mod hot_mod;
pub mod hot_unwrap;
pub mod rng;
pub mod shadowing;
pub mod wall_clock;
