//! Way-level bitmasks for cache partitioning.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // hot path: DESIGN.md §12

use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

use serde::{Deserialize, Serialize};

/// A bitmask over the ways of a set-associative structure (bit *i* = way
/// *i*).
///
/// Used for three distinct partitioning mechanisms from the paper:
/// the per-structure *HarvestMask* (which ways form the harvest region,
/// Section 4.2.1), Intel-CAT-style LLC partitions per VM (Section 2.3), and
/// the capacity-scaling study of Figure 7 (restricting the usable ways of
/// every structure).
///
/// # Example
///
/// ```
/// use hh_mem::WayMask;
///
/// let harvest = WayMask::lower(4); // ways 0..4 are the harvest region
/// let non_harvest = harvest.complement(8);
/// assert_eq!(harvest.count(), 4);
/// assert_eq!(non_harvest.count(), 4);
/// assert!(!harvest.intersects(non_harvest));
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct WayMask(pub u32);

impl WayMask {
    /// No ways.
    pub const EMPTY: WayMask = WayMask(0);

    /// A mask of the lowest `n` ways.
    ///
    /// # Panics
    /// Panics if `n > 32`.
    pub fn lower(n: usize) -> Self {
        assert!(n <= 32, "at most 32 ways supported");
        if n == 32 {
            WayMask(u32::MAX)
        } else {
            WayMask((1u32 << n) - 1)
        }
    }

    /// All `total` ways of a structure.
    pub fn all(total: usize) -> Self {
        Self::lower(total)
    }

    /// A mask holding exactly `fraction * total` ways (rounded, at least one
    /// when `fraction > 0`), taken from the low end.
    ///
    /// # Panics
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn fraction(total: usize, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        // total_cmp on the absolute value treats -0.0 like 0.0, exactly as
        // the old `== 0.0` did, without a direct float equality.
        if fraction.abs().total_cmp(&0.0).is_eq() {
            return WayMask::EMPTY;
        }
        let n = ((total as f64 * fraction).round() as usize).clamp(1, total);
        Self::lower(n)
    }

    /// Whether way `w` is in the mask.
    #[inline]
    pub fn contains(self, w: usize) -> bool {
        w < 32 && self.0 & (1 << w) != 0
    }

    /// Number of ways in the mask.
    #[inline]
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether the mask is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The complement within a structure of `total` ways.
    #[inline]
    pub fn complement(self, total: usize) -> WayMask {
        WayMask(!self.0 & Self::all(total).0)
    }

    /// Whether the two masks share any way.
    #[inline]
    pub fn intersects(self, other: WayMask) -> bool {
        self.0 & other.0 != 0
    }

    /// Iterates over the way indices in the mask, ascending. Scans set
    /// bits directly (`trailing_zeros`) rather than testing all 32
    /// positions, since victim selection iterates masks in its inner loop.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let w = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w)
            }
        })
    }
}

impl BitAnd for WayMask {
    type Output = WayMask;
    fn bitand(self, rhs: WayMask) -> WayMask {
        WayMask(self.0 & rhs.0)
    }
}

impl BitOr for WayMask {
    type Output = WayMask;
    fn bitor(self, rhs: WayMask) -> WayMask {
        WayMask(self.0 | rhs.0)
    }
}

impl Not for WayMask {
    type Output = WayMask;
    fn not(self) -> WayMask {
        WayMask(!self.0)
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010b}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_and_all() {
        assert_eq!(WayMask::lower(0), WayMask::EMPTY);
        assert_eq!(WayMask::lower(3).0, 0b111);
        assert_eq!(WayMask::all(32).0, u32::MAX);
    }

    #[test]
    fn fraction_rounds_and_clamps() {
        assert_eq!(WayMask::fraction(8, 0.5).count(), 4);
        assert_eq!(WayMask::fraction(8, 0.0).count(), 0);
        assert_eq!(WayMask::fraction(8, 1.0).count(), 8);
        // tiny but non-zero fraction still yields one way
        assert_eq!(WayMask::fraction(8, 0.01).count(), 1);
        // 75% of 12 ways = 9
        assert_eq!(WayMask::fraction(12, 0.75).count(), 9);
    }

    #[test]
    fn complement_partitions() {
        let h = WayMask::fraction(16, 0.5);
        let nh = h.complement(16);
        assert_eq!(h.count() + nh.count(), 16);
        assert!(!h.intersects(nh));
        assert_eq!((h | nh), WayMask::all(16));
        assert_eq!((h & nh), WayMask::EMPTY);
    }

    #[test]
    fn iteration_matches_contains() {
        let m = WayMask(0b1010_0110);
        let ways: Vec<usize> = m.iter().collect();
        assert_eq!(ways, vec![1, 2, 5, 7]);
        for w in &ways {
            assert!(m.contains(*w));
        }
        assert!(!m.contains(0));
        assert!(!m.contains(33));
    }

    #[test]
    #[should_panic(expected = "at most 32")]
    fn too_many_ways_panics() {
        WayMask::lower(33);
    }
}
