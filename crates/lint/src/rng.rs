//! ambient-rng: entropy that does not flow from the seeded experiment
//! config. std's randomized hasher state is exercised here; the `rand`,
//! `getrandom` and `hashbrown` entries in clippy.toml are
//! `allow-invalid = true` because the workspace depends on none of those
//! crates, so no fixture can name them.

pub fn hasher_state() -> u64 {
    use std::hash::BuildHasher;
    #[expect(clippy::disallowed_types)]
    let s = std::collections::hash_map::RandomState::new();
    s.hash_one(7u64)
}

pub fn default_hasher() -> u64 {
    use std::hash::Hasher;
    #[expect(clippy::disallowed_types)]
    let h = std::hash::DefaultHasher::new();
    h.finish()
}

/// The blessed path: a generator seeded from the experiment config.
pub fn seeded(seed: u64) -> u64 {
    let mut rng = Rng64::new(seed ^ 0x9e37);
    rng.next_u64()
}

struct Rng64 {
    state: u64,
}

impl Rng64 {
    fn new(seed: u64) -> Rng64 {
        Rng64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1);
        self.state
    }
}
