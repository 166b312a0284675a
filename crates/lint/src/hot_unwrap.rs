//! unwrap-in-hot-path, `#[inline]` scope: outside a hot module only the
//! `#[inline]` functions are hot, each opting in with an outer `deny`.

#[inline]
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub fn hot_lookup(xs: &[u64], i: usize) -> u64 {
    #[expect(clippy::unwrap_used)]
    let v = xs.get(i).unwrap();
    *v
}

#[inline(always)]
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[expect(clippy::expect_used)]
pub fn hot_expect(x: Option<u64>) -> u64 {
    x.expect("present")
}

#[inline]
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub fn hot_panic(x: u64) -> u64 {
    if x == 0 {
        #[expect(clippy::panic)]
        {
            panic!("zero");
        }
    }
    x
}

pub fn cold_setup(path: &str) -> String {
    std::fs::read_to_string(path).unwrap() // cold path: unwrap is fine
}

#[inline]
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#[expect(clippy::unwrap_used, reason = "index validated by caller")]
pub fn hot_justified(x: Option<u64>) -> u64 {
    x.unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_unwrap_freely() {
        let v = "3".parse::<u64>().ok();
        assert_eq!(v.unwrap(), 3);
    }
}
