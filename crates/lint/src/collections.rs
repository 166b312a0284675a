//! nondeterministic-collection: `HashMap`/`HashSet` iterate in a
//! per-process random order, so any order-dependent use breaks the
//! bit-exact figure tables. Clippy resolves types, so `as` renames,
//! qualified paths and turbofish are all caught, and so is the `use` item.

use std::collections::BTreeMap;
#[expect(clippy::disallowed_types)]
use std::collections::HashMap;
#[expect(clippy::disallowed_types)]
use std::collections::HashSet as FastSet;

pub struct State {
    #[expect(clippy::disallowed_types)]
    by_id: HashMap<u64, u64>,
    #[expect(clippy::disallowed_types)]
    tags: FastSet<u64>,
    ordered: BTreeMap<u64, u64>,
}

pub fn build() -> State {
    #[expect(clippy::disallowed_types)]
    let by_id = HashMap::new();
    #[expect(clippy::disallowed_types)]
    let tags = FastSet::new();
    let ordered = BTreeMap::new();
    State {
        by_id,
        tags,
        ordered,
    }
}

pub fn qualified() -> usize {
    #[expect(clippy::disallowed_types)]
    let m: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    m.len()
}

pub fn turbofish(xs: &[u64]) -> usize {
    #[expect(clippy::disallowed_types)]
    let s = xs
        .iter()
        .copied()
        .collect::<std::collections::HashSet<u64>>();
    s.len()
}

pub fn ordered_is_fine(s: &State) -> usize {
    s.by_id.len() + s.tags.len() + s.ordered.len()
}
