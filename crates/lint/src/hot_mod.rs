//! unwrap-in-hot-path, whole-module scope: a hot module opts in with one
//! inner `deny`, so every non-test function here is hot even without
//! `#[inline]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub struct Ring {
    slots: Vec<u64>,
    head: usize,
}

impl Ring {
    pub fn pop(&mut self) -> u64 {
        #[expect(clippy::unwrap_used)]
        let v = self.slots.get(self.head).copied().unwrap();
        self.head += 1;
        v
    }

    #[expect(clippy::expect_used)]
    pub fn peek(&self) -> u64 {
        *self.slots.first().expect("ring is non-empty")
    }

    pub fn checked_pop(&mut self) -> Option<u64> {
        let v = self.slots.get(self.head).copied()?;
        self.head += 1;
        Some(v)
    }

    #[expect(clippy::unwrap_used, reason = "len checked at construction")]
    pub fn audited(&self) -> u64 {
        self.slots.last().copied().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::Ring;

    #[test]
    fn pop_order() {
        let mut r = Ring {
            slots: vec![1, 2],
            head: 0,
        };
        assert_eq!(r.checked_pop().unwrap(), 1);
    }
}
