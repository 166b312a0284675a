//! Local types that merely share a name with a banned std type. Clippy
//! resolves definitions, not names, so they are clean, while the real std
//! types are still banned next to them.

/// A dense, insertion-ordered stand-in that happens to reuse the name.
pub struct HashMap {
    keys: Vec<u64>,
    vals: Vec<u64>,
}

pub struct Instant {
    cycles: u64,
}

pub fn local_types_are_fine(m: &HashMap, t: &Instant) -> u64 {
    let m2: HashMap = HashMap {
        keys: vec![],
        vals: vec![],
    };
    m.keys.len() as u64 + m2.vals.len() as u64 + t.cycles
}

pub fn qualified_is_still_banned() -> usize {
    #[expect(clippy::disallowed_types)]
    let m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    #[expect(clippy::disallowed_types)]
    let t = std::time::Instant::now();
    m.len() + t.elapsed().as_secs() as usize
}
