//! float-eq: exact `==`/`!=` on floats is almost always a latent ULP bug.
//! `clippy::float_cmp` is type-aware, so it also catches var-to-var
//! comparisons, but it exempts comparisons against ±0.0 and infinities.

pub fn exact(a: f64, b: f64) -> bool {
    #[expect(clippy::float_cmp)]
    let half = a == 0.5;
    #[expect(clippy::float_cmp)]
    let one = 1.0 != b;
    half || one
}

pub fn var_to_var(a: f64, b: f64) -> bool {
    #[expect(clippy::float_cmp)]
    let same = a == b;
    same
}

pub fn scientific(x: f64) -> bool {
    #[expect(clippy::float_cmp)]
    let hit = x != 2.5e-3;
    hit
}

pub fn zero_is_exempt(x: f64) -> bool {
    x == 0.0 || x == -0.0
}

pub fn ranges_are_fine(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

pub fn orderings_are_fine(x: f64) -> bool {
    x < 0.5
}

pub fn integers_are_fine(n: u64) -> bool {
    n == 0
}

pub fn total_order(a: f64) -> bool {
    a.total_cmp(&0.5).is_lt()
}

pub fn epsilon(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[expect(clippy::float_cmp, reason = "span is a sum of exact dyadic steps")]
pub fn justified(span: f64) -> bool {
    span == 0.25
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    #[test]
    fn bit_exact_assertions_allowed_in_tests() {
        let x = 0.1 + 0.2;
        assert!(x != 0.3);
    }
}
