//! Escape-hatch scoping. An `#[expect(lint, reason)]` covers only the lint
//! it names, only inside the item or statement it is attached to.

#[expect(clippy::float_cmp, reason = "exact dyadic comparison")]
pub fn whole_fn(b: f64) -> bool {
    b == 0.5
}

pub fn one_statement(b: f64) -> bool {
    #[expect(clippy::float_cmp, reason = "sentinel encodes \"no sample yet\"")]
    let unset = b == -1.0;
    unset
}

#[expect(clippy::disallowed_types, reason = "calibration helper")]
pub fn wrong_lint_does_not_cover(c: f64) -> bool {
    let t = std::time::Instant::now();
    #[expect(clippy::float_cmp)]
    let hit = c == 0.25;
    hit && t.elapsed().as_secs() < 1
}

pub fn scope_ends_with_the_statement(d: f64) -> bool {
    #[expect(clippy::float_cmp, reason = "only covers this statement")]
    let first = d == 1.5;
    #[expect(clippy::float_cmp)]
    let second = d + 1.0 == 2.0;
    first || second
}
