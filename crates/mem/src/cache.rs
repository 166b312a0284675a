//! The set-associative cache/TLB structure with way partitioning and the
//! HardHarvest replacement algorithm (paper Sections 4.2.1–4.2.4).
//!
//! The storage is struct-of-arrays: tags live in one dense `Vec<u64>` so
//! the hit-path probe scans a single cache line per set, while the
//! valid/shared/dirty/RRPV state is packed into one metadata byte per
//! entry and LRU stamps sit in their own array. Victim selection operates
//! on an *effective* way mask (`allowed ∩ ways`) computed once per
//! access, never re-filtered inside scan loops.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // hot path: DESIGN.md §12

use serde::{Deserialize, Serialize};

use crate::{PolicyKind, WayMask};

/// Packed per-entry metadata bits (see [`SetAssocCache::meta`]).
const META_VALID: u8 = 1 << 0;
/// The page-table `Shared` bit, copied into the entry on insertion
/// (Section 4.2.2).
const META_SHARED: u8 = 1 << 1;
const META_DIRTY: u8 = 1 << 2;
/// SRRIP re-reference prediction value (0 = near, 3 = distant), two bits.
const RRPV_SHIFT: u8 = 3;
const RRPV_MASK: u8 = 0b11 << RRPV_SHIFT;

/// Hit/miss accounting for one structure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Valid entries invalidated by flushes.
    pub flushed: u64,
    /// Dirty lines written back (on eviction or flush).
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the reference hit.
    pub hit: bool,
    /// Whether a dirty victim was written back to the next level.
    pub writeback: bool,
}

/// One reference of a batched [`SetAssocCache::access_run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRef {
    /// Line/page key (already VM-namespaced).
    pub key: u64,
    /// The page-class `Shared` bit.
    pub shared: bool,
    /// Whether the reference dirties the line.
    pub write: bool,
}

/// Aggregate result of one [`SetAssocCache::access_run`] batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchOutcome {
    /// References that hit.
    pub hits: u64,
    /// References that missed.
    pub misses: u64,
    /// References whose miss handling wrote back at least one dirty line.
    pub writebacks: u64,
}

/// Externally-visible state of one way of one set, for state comparison
/// and divergence reports in the `hh-check` differential oracle.
///
/// Covers everything replacement decisions depend on: the tag, the
/// valid/shared/dirty bits, the SRRIP re-reference value, and the LRU
/// stamp (both the optimized cache and the reference model advance their
/// clocks once per access, so stamps are directly comparable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WayState {
    /// Way index within the set.
    pub way: usize,
    /// Stored tag (meaningless when `!valid`).
    pub tag: u64,
    /// Whether the entry holds a line.
    pub valid: bool,
    /// The page-class `Shared` bit.
    pub shared: bool,
    /// Whether the line is dirty.
    pub dirty: bool,
    /// SRRIP re-reference prediction value (0–3).
    pub rrpv: u8,
    /// LRU stamp (larger = more recently used; 0 when never touched or
    /// invalidated).
    pub stamp: u64,
}

/// A set-associative cache or TLB with harvest/non-harvest way partitioning.
///
/// TLBs are the same structure instantiated over page numbers instead of
/// line addresses; the caller picks the granularity of the keys it passes.
///
/// Accesses carry an *allowed-way* mask: a Primary VM normally sees every
/// way, a Harvest VM only the harvest region, and the Figure 7 capacity
/// study shrinks the mask globally. Insertion is restricted to allowed
/// ways; hits are only honoured in allowed ways.
///
/// # Example
///
/// ```
/// use hh_mem::{PolicyKind, SetAssocCache, WayMask};
///
/// let mut c = SetAssocCache::new(64, 8, PolicyKind::Lru, WayMask::lower(4));
/// let all = WayMask::all(8);
/// assert!(!c.access(0x42, false, all, false).hit); // cold miss
/// assert!(c.access(0x42, false, all, false).hit); // now resident
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    /// Tags alone, `sets * ways` long, so the hit probe strides one dense
    /// u64 array instead of 32-byte entry records.
    tags: Vec<u64>,
    /// One packed metadata byte per entry: bit 0 valid, bit 1 shared,
    /// bit 2 dirty, bits 3–4 the SRRIP RRPV.
    meta: Vec<u8>,
    /// LRU stamps: larger = more recently used.
    stamps: Vec<u64>,
    policy: PolicyKind,
    /// Ways forming the harvest region (HarvestMask register).
    harvest_mask: WayMask,
    clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    /// Panics if `sets` or `ways` is zero, `ways > 32`, or the harvest mask
    /// references ways beyond `ways`.
    pub fn new(sets: usize, ways: usize, policy: PolicyKind, harvest_mask: WayMask) -> Self {
        assert!(sets > 0 && ways > 0, "degenerate geometry");
        assert!(ways <= 32, "way mask is 32 bits");
        assert!(
            !harvest_mask.intersects(WayMask::all(ways).complement(32)),
            "harvest mask exceeds the structure's ways"
        );
        SetAssocCache {
            sets,
            ways,
            tags: vec![0; sets * ways],
            meta: vec![0; sets * ways],
            stamps: vec![0; sets * ways],
            policy,
            harvest_mask,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// The harvest-region way mask.
    pub fn harvest_mask(&self) -> WayMask {
        self.harvest_mask
    }

    /// Reconfigures the harvest region (the HarvestMask register is loaded
    /// per VM when a core is re-assigned, Section 4.2.1).
    ///
    /// # Panics
    /// Panics if the mask references ways beyond the structure.
    pub fn set_harvest_mask(&mut self, mask: WayMask) {
        assert!(!mask.intersects(WayMask::all(self.ways).complement(32)));
        self.harvest_mask = mask;
    }

    /// Replacement-policy accessor.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// Swaps the replacement policy (used by the Figure 14 lab).
    pub fn set_policy(&mut self, policy: PolicyKind) {
        self.policy = policy;
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// The mask actually usable by an access: `allowed ∩ [0, ways)`.
    /// Computed once per access so no scan loop re-filters way indices.
    #[inline]
    fn effective(&self, allowed: WayMask) -> WayMask {
        WayMask(allowed.0 & WayMask::all(self.ways).0)
    }

    #[inline]
    fn set_base(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize * self.ways
    }

    /// Looks up `key` without updating any state. Returns the hit way.
    pub fn probe(&self, key: u64, allowed: WayMask) -> Option<usize> {
        let eff = self.effective(allowed);
        let base = self.set_base(key);
        (0..self.ways).find(|&w| {
            self.tags[base + w] == key && self.meta[base + w] & META_VALID != 0 && eff.contains(w)
        })
    }

    /// Performs one access: `key` is the line/page address (already
    /// VM-namespaced), `shared` the page-class bit, `allowed` the ways this
    /// access may see, `write` whether it dirties the line.
    ///
    /// On a miss the line is inserted into an allowed way chosen by the
    /// configured replacement policy; if the line is also resident in a
    /// *disallowed* way, that stale copy is invalidated first (with
    /// writeback accounting) so a tag is never duplicated within a set. If
    /// `allowed` is empty the access bypasses the structure entirely
    /// (counted as a miss, nothing inserted or invalidated).
    pub fn access(&mut self, key: u64, shared: bool, allowed: WayMask, write: bool) -> AccessOutcome {
        let eff = self.effective(allowed);
        self.access_at(key, shared, eff, write)
    }

    /// Drives an ordered batch of references through the cache with one
    /// call: the effective way mask is computed once for the whole run and
    /// the per-reference dispatch overhead disappears. Exactly equivalent
    /// to calling [`SetAssocCache::access`] per element in order — the
    /// address-stream synthesizer (`hh-workload`'s `PhaseStream::batch`)
    /// produces batches in stream order precisely so replay results stay
    /// bit-identical to the scalar path.
    pub fn access_run(&mut self, refs: &[BatchRef], allowed: WayMask) -> BatchOutcome {
        let eff = self.effective(allowed);
        let mut out = BatchOutcome::default();
        for r in refs {
            let o = self.access_at(r.key, r.shared, eff, r.write);
            if o.hit {
                out.hits += 1;
            } else {
                out.misses += 1;
            }
            out.writebacks += o.writeback as u64;
        }
        out
    }

    /// The access core; `eff` must already be intersected with the
    /// structure's ways.
    #[inline]
    fn access_at(&mut self, key: u64, shared: bool, eff: WayMask, write: bool) -> AccessOutcome {
        self.clock += 1;
        let clock = self.clock;
        let base = self.set_base(key);

        // Probe: scan the dense tag array; ways holding this tag outside
        // the allowed mask are remembered as stale twins.
        let mut stale_ways: u32 = 0;
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == key && self.meta[i] & META_VALID != 0 {
                if eff.contains(w) {
                    self.stamps[i] = clock;
                    let mut m = self.meta[i] & !RRPV_MASK;
                    if write {
                        m |= META_DIRTY;
                    }
                    self.meta[i] = m;
                    self.stats.hits += 1;
                    return AccessOutcome {
                        hit: true,
                        writeback: false,
                    };
                }
                stale_ways |= 1 << w;
            }
        }

        self.stats.misses += 1;
        if eff.is_empty() {
            return AccessOutcome {
                hit: false,
                writeback: false,
            };
        }

        // The key is resident in disallowed ways only: drop those copies
        // before inserting so the set never holds duplicate tags (a dirty
        // copy is written back now rather than double-counted later).
        let mut writeback = false;
        while stale_ways != 0 {
            let w = stale_ways.trailing_zeros() as usize;
            stale_ways &= stale_ways - 1;
            let i = base + w;
            if self.meta[i] & META_DIRTY != 0 {
                self.stats.writebacks += 1;
                writeback = true;
            }
            self.tags[i] = 0;
            self.meta[i] = 0;
            self.stamps[i] = 0;
        }

        let victim = self.choose_victim(base, eff, shared);
        let i = base + victim;
        if self.meta[i] & (META_VALID | META_DIRTY) == META_VALID | META_DIRTY {
            self.stats.writebacks += 1;
            writeback = true;
        }
        self.tags[i] = key;
        self.stamps[i] = clock;
        // SRRIP long-rereference insertion (RRPV = 2).
        self.meta[i] = META_VALID
            | if shared { META_SHARED } else { 0 }
            | if write { META_DIRTY } else { 0 }
            | (2 << RRPV_SHIFT);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Chooses the way (relative to the set) to victimize. `eff` is the
    /// pre-intersected allowed mask, verified non-empty by the caller.
    fn choose_victim(&mut self, base: usize, eff: WayMask, incoming_shared: bool) -> usize {
        match self.policy {
            PolicyKind::Lru => self.victim_lru(base, eff),
            PolicyKind::Rrip => self.victim_rrip(base, eff),
            PolicyKind::HardHarvest { candidate_frac } => {
                self.victim_hardharvest(base, eff, incoming_shared, candidate_frac)
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "`eff` was checked non-empty at lookup entry; an empty mask cannot reach here"
    )]
    fn victim_lru(&self, base: usize, eff: WayMask) -> usize {
        if let Some(w) = self.first_empty(base, eff) {
            return w;
        }
        self.lru_of(base, eff, |_| true)
            .expect("allowed mask verified non-empty")
    }

    fn victim_rrip(&mut self, base: usize, eff: WayMask) -> usize {
        if let Some(w) = self.first_empty(base, eff) {
            return w;
        }
        // `eff` is already the effective mask, so both passes iterate it
        // directly — no per-iteration re-filtering.
        loop {
            for w in eff.iter() {
                if self.meta[base + w] & RRPV_MASK == RRPV_MASK {
                    return w;
                }
            }
            for w in eff.iter() {
                let i = base + w;
                let rrpv = (self.meta[i] & RRPV_MASK) >> RRPV_SHIFT;
                let aged = (rrpv + 1).min(3);
                self.meta[i] = (self.meta[i] & !RRPV_MASK) | (aged << RRPV_SHIFT);
            }
        }
    }

    /// Algorithm 1 from the paper, including the eviction-candidate window.
    #[expect(
        clippy::expect_used,
        reason = "the final fallback scans the full effective mask, which is non-empty here"
    )]
    fn victim_hardharvest(
        &self,
        base: usize,
        eff: WayMask,
        incoming_shared: bool,
        candidate_frac: f64,
    ) -> usize {
        let harv = self.harvest_mask & eff;
        let non_harv = self.harvest_mask.complement(self.ways) & eff;

        // Empty-slot cases (Algorithm 1, first branch). Empty slots are not
        // subject to the candidate window.
        let empty_h = self.first_empty(base, harv);
        let empty_nh = self.first_empty(base, non_harv);
        match (empty_nh, empty_h) {
            (Some(nh), Some(h)) => {
                return if incoming_shared { nh } else { h };
            }
            (Some(nh), None) => return nh,
            (None, Some(h)) => return h,
            (None, None) => {}
        }

        // No empty slot: restrict to the M least-recently-used entries.
        // At most 32 ways, so the age sort runs on a stack buffer.
        let allowed_count = eff.count();
        let m = ((allowed_count as f64 * candidate_frac).round() as usize).clamp(1, allowed_count);
        let mut by_age = [0usize; 32];
        let mut n = 0;
        for w in eff.iter() {
            by_age[n] = w;
            n += 1;
        }
        by_age[..n].sort_by_key(|&w| self.stamps[base + w]);
        let window = &by_age[..m];
        let candidate = |w: usize| window.contains(&w);

        let pick_lru = |region: WayMask, private_only: bool| -> Option<usize> {
            self.lru_of(base, region, |w| {
                candidate(w) && (!private_only || self.meta[base + w] & META_SHARED == 0)
            })
        };

        if incoming_shared {
            // Private victim in Non-Harv, then private in Harv, then any.
            pick_lru(non_harv, true)
                .or_else(|| pick_lru(harv, true))
                .or_else(|| pick_lru(eff, false))
                .expect("candidate window is non-empty")
        } else {
            // Private victim in Harv, then private in Non-Harv, then any.
            pick_lru(harv, true)
                .or_else(|| pick_lru(non_harv, true))
                .or_else(|| pick_lru(eff, false))
                .expect("candidate window is non-empty")
        }
    }

    /// First invalid way in `mask` (pre-intersected with the structure).
    fn first_empty(&self, base: usize, mask: WayMask) -> Option<usize> {
        mask.iter().find(|&w| self.meta[base + w] & META_VALID == 0)
    }

    /// Least-recently-used way in `mask` satisfying `pred`.
    fn lru_of(&self, base: usize, mask: WayMask, pred: impl Fn(usize) -> bool) -> Option<usize> {
        mask.iter()
            .filter(|&w| pred(w))
            .min_by_key(|&w| self.stamps[base + w])
    }

    /// Invalidates every entry in the given ways across all sets (the
    /// harvest-region flush). Returns the number of valid entries dropped.
    pub fn invalidate_ways(&mut self, mask: WayMask) -> u64 {
        let eff = self.effective(mask);
        let mut dropped = 0;
        for set in 0..self.sets {
            let base = set * self.ways;
            for w in eff.iter() {
                let i = base + w;
                if self.meta[i] & META_VALID != 0 {
                    dropped += 1;
                    if self.meta[i] & META_DIRTY != 0 {
                        self.stats.writebacks += 1;
                    }
                    self.tags[i] = 0;
                    self.meta[i] = 0;
                    self.stamps[i] = 0;
                }
            }
        }
        self.stats.flushed += dropped;
        dropped
    }

    /// Invalidates the whole structure (software full flush). Returns the
    /// number of valid entries dropped.
    pub fn invalidate_all(&mut self) -> u64 {
        self.invalidate_ways(WayMask::all(self.ways))
    }

    /// Dumps the state of every way of `set` (see [`WayState`]). Used by
    /// the differential oracle to compare against its reference model and
    /// to print the ways of a diverging set.
    ///
    /// # Panics
    /// Panics if `set` is out of range.
    pub fn way_states(&self, set: usize) -> Vec<WayState> {
        assert!(set < self.sets, "set {set} out of range");
        let base = set * self.ways;
        (0..self.ways)
            .map(|w| {
                let m = self.meta[base + w];
                WayState {
                    way: w,
                    tag: self.tags[base + w],
                    valid: m & META_VALID != 0,
                    shared: m & META_SHARED != 0,
                    dirty: m & META_DIRTY != 0,
                    rrpv: (m & RRPV_MASK) >> RRPV_SHIFT,
                    stamp: self.stamps[base + w],
                }
            })
            .collect()
    }

    /// The set index a key maps to (for divergence reports).
    pub fn set_of(&self, key: u64) -> usize {
        (key % self.sets as u64) as usize
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.meta.iter().filter(|&&m| m & META_VALID != 0).count()
    }

    /// Number of valid entries resident in the given ways.
    pub fn occupancy_in(&self, mask: WayMask) -> usize {
        let eff = self.effective(mask);
        let mut n = 0;
        for set in 0..self.sets {
            let base = set * self.ways;
            for w in eff.iter() {
                if self.meta[base + w] & META_VALID != 0 {
                    n += 1;
                }
            }
        }
        n
    }

    /// Number of valid *shared* entries resident in the given ways.
    pub fn shared_occupancy_in(&self, mask: WayMask) -> usize {
        let eff = self.effective(mask);
        let mut n = 0;
        for set in 0..self.sets {
            let base = set * self.ways;
            for w in eff.iter() {
                if self.meta[base + w] & (META_VALID | META_SHARED) == META_VALID | META_SHARED {
                    n += 1;
                }
            }
        }
        n
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    fn small(policy: PolicyKind) -> SetAssocCache {
        // 1 set, 4 ways, harvest region = ways 0..2
        SetAssocCache::new(1, 4, policy, WayMask::lower(2))
    }

    const ALL4: WayMask = WayMask(0b1111);

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(PolicyKind::Lru);
        assert!(!c.access(10, false, ALL4, false).hit);
        assert!(c.access(10, false, ALL4, false).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small(PolicyKind::Lru);
        for k in 0..4 {
            c.access(k, false, ALL4, false);
        }
        c.access(0, false, ALL4, false); // refresh key 0
        c.access(100, false, ALL4, false); // evicts key 1 (oldest)
        assert!(!c.access(1, false, ALL4, false).hit);
        assert!(c.access(0, false, ALL4, false).hit);
    }

    #[test]
    fn restricted_mask_limits_capacity() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        for k in 0..3 {
            c.access(k, false, harvest_only, false);
        }
        // only 2 ways available: key 0 was evicted
        assert!(!c.access(0, false, harvest_only, false).hit);
        assert_eq!(c.occupancy_in(WayMask::lower(2)), 2);
        assert_eq!(c.occupancy_in(WayMask::lower(2).complement(4)), 0);
    }

    #[test]
    fn empty_allowed_mask_bypasses() {
        let mut c = small(PolicyKind::Lru);
        let out = c.access(5, false, WayMask::EMPTY, false);
        assert!(!out.hit);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn hit_requires_allowed_way() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        let non_harvest = harvest_only.complement(4);
        c.access(7, true, non_harvest, false); // resident in a non-harvest way
        // an access restricted to harvest ways must not see it
        assert!(!c.access(7, true, harvest_only, false).hit);
    }

    #[test]
    fn disallowed_resident_copy_is_invalidated_on_miss() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        let non_harvest = harvest_only.complement(4);
        c.access(7, false, non_harvest, true); // dirty, resident in a NH way
        // Miss restricted to harvest ways: the stale NH copy must be
        // dropped (and written back) before the new insertion, leaving a
        // single resident copy rather than a duplicate tag.
        let out = c.access(7, false, harvest_only, false);
        assert!(!out.hit);
        assert!(out.writeback, "dirty stale copy must be written back");
        assert_eq!(c.stats().writebacks, 1);
        assert_eq!(c.occupancy(), 1, "no duplicate tag in the set");
        assert_eq!(c.occupancy_in(non_harvest), 0);
        assert_eq!(c.occupancy_in(harvest_only), 1);
        assert!(c.access(7, false, ALL4, false).hit);
        // Evicting the surviving copy (clean) must not write back again.
        c.access(8, false, harvest_only, false);
        c.access(9, false, harvest_only, false);
        assert_eq!(c.stats().writebacks, 1, "no double-counted writeback");
    }

    #[test]
    fn clean_disallowed_copy_drops_without_writeback() {
        let mut c = small(PolicyKind::Lru);
        let harvest_only = WayMask::lower(2);
        let non_harvest = harvest_only.complement(4);
        c.access(7, false, non_harvest, false); // clean copy
        let out = c.access(7, false, harvest_only, false);
        assert!(!out.hit && !out.writeback);
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn bypass_leaves_disallowed_copy_resident() {
        let mut c = small(PolicyKind::Lru);
        let non_harvest = WayMask::lower(2).complement(4);
        c.access(7, false, non_harvest, false);
        // Empty allowed mask: nothing is inserted, so the resident copy
        // must not be invalidated either.
        c.access(7, false, WayMask::EMPTY, false);
        assert_eq!(c.occupancy(), 1);
        assert!(c.access(7, false, ALL4, false).hit);
    }

    #[test]
    fn access_run_matches_scalar_loop() {
        let refs: Vec<BatchRef> = (0..600u64)
            .map(|i| BatchRef {
                key: (i * 29) % 97,
                shared: i % 3 == 0,
                write: i % 7 == 0,
            })
            .collect();
        for policy in [
            PolicyKind::Lru,
            PolicyKind::Rrip,
            PolicyKind::hardharvest_default(),
        ] {
            let mask = WayMask::lower(3);
            let mut scalar = SetAssocCache::new(8, 4, policy, WayMask::lower(2));
            let mut batched = scalar.clone();
            let mut hits = 0;
            for r in &refs {
                if scalar.access(r.key, r.shared, mask, r.write).hit {
                    hits += 1;
                }
            }
            let out = batched.access_run(&refs, mask);
            assert_eq!(scalar.stats(), batched.stats(), "{policy:?}");
            assert_eq!(out.hits, hits, "{policy:?}");
            assert_eq!(out.hits + out.misses, refs.len() as u64);
            assert_eq!(scalar.occupancy(), batched.occupancy());
            for k in 0..97 {
                assert_eq!(scalar.probe(k, mask), batched.probe(k, mask), "{policy:?} key {k}");
            }
        }
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = SetAssocCache::new(1, 1, PolicyKind::Lru, WayMask::EMPTY);
        let one = WayMask::lower(1);
        c.access(1, false, one, true); // dirty
        let out = c.access(2, false, one, false); // evicts dirty line
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn rrip_hits_reset_rrpv_and_survive() {
        let mut c = small(PolicyKind::Rrip);
        for k in 0..4 {
            c.access(k, false, ALL4, false);
        }
        // Re-reference key 0 repeatedly → rrpv 0, should survive new inserts.
        for _ in 0..3 {
            c.access(0, false, ALL4, false);
        }
        for k in 10..13 {
            c.access(k, false, ALL4, false);
        }
        assert!(c.access(0, false, ALL4, false).hit, "hot line evicted");
    }

    #[test]
    fn hardharvest_steers_shared_to_non_harvest_empty() {
        let mut c = small(PolicyKind::hardharvest_default());
        c.access(1, true, ALL4, false); // shared → non-harvest empty (way 2/3)
        c.access(2, false, ALL4, false); // private → harvest empty (way 0/1)
        let harvest = WayMask::lower(2);
        assert_eq!(c.shared_occupancy_in(harvest.complement(4)), 1);
        assert_eq!(c.occupancy_in(harvest), 1);
        assert_eq!(c.shared_occupancy_in(harvest), 0);
    }

    #[test]
    fn hardharvest_shared_evicts_private_in_non_harvest_first() {
        let mut c = small(PolicyKind::hardharvest_default());
        // Fill: ways 0,1 (harvest) private; ways 2,3 (non-harvest): one
        // private (forced), one shared.
        c.access(1, false, ALL4, false); // → harvest
        c.access(2, false, ALL4, false); // → harvest
        c.access(3, false, ALL4, false); // harvest full → takes NH empty
        c.access(4, true, ALL4, false); // shared → NH empty
        assert_eq!(c.occupancy(), 4);
        // Incoming shared entry must evict the private line in non-harvest
        // (key 3), not the shared one and not harvest lines.
        c.access(5, true, ALL4, false);
        assert!(!c.access(3, true, ALL4, false).hit, "private NH line should be victim");
        // keys 1,2 (harvest) and 4 (shared NH) survived… key 3's probe
        // above re-inserted it, so just check stats instead:
        assert_eq!(c.stats().flushed, 0);
    }

    #[test]
    fn hardharvest_private_evicts_private_in_harvest_first() {
        let mut c = small(PolicyKind::hardharvest_default());
        c.access(1, false, ALL4, false); // harvest way
        c.access(2, false, ALL4, false); // harvest way
        c.access(3, true, ALL4, false); // NH way
        c.access(4, true, ALL4, false); // NH way
        // Incoming private: victim must be the LRU private in harvest (key 1).
        c.access(5, false, ALL4, false);
        assert!(c.probe(1, ALL4).is_none(), "key 1 should be evicted");
        assert!(c.probe(3, ALL4).is_some());
        assert!(c.probe(4, ALL4).is_some());
    }

    #[test]
    fn hardharvest_all_shared_set_falls_back_to_lru() {
        let mut c = small(PolicyKind::HardHarvest { candidate_frac: 1.0 });
        for k in 1..=4 {
            c.access(k, true, ALL4, false);
        }
        c.access(9, false, ALL4, false); // private incoming, all shared → LRU (key 1)
        assert!(c.probe(1, ALL4).is_none());
        assert!(c.probe(9, ALL4).is_some());
    }

    #[test]
    fn eviction_candidate_window_protects_mru_private() {
        // candidate_frac 0.5 on 4 ways → only the 2 LRU entries are
        // eligible. A recently-touched private line must survive a shared
        // insertion even though Algorithm 1 would otherwise pick it.
        let mut c = small(PolicyKind::HardHarvest { candidate_frac: 0.5 });
        c.access(1, true, ALL4, false);
        c.access(2, true, ALL4, false);
        c.access(3, true, ALL4, false);
        c.access(4, false, ALL4, false); // private, most recently used
        c.access(4, false, ALL4, false); // refresh again
        c.access(5, true, ALL4, false); // shared insert
        assert!(
            c.probe(4, ALL4).is_some(),
            "MRU private line must be outside the candidate window"
        );
    }

    #[test]
    fn invalidate_ways_flushes_only_region() {
        let mut c = small(PolicyKind::hardharvest_default());
        c.access(1, false, ALL4, false); // harvest
        c.access(2, true, ALL4, false); // non-harvest
        let dropped = c.invalidate_ways(WayMask::lower(2));
        assert_eq!(dropped, 1);
        assert!(c.probe(1, ALL4).is_none());
        assert!(c.probe(2, ALL4).is_some());
        assert_eq!(c.stats().flushed, 1);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = small(PolicyKind::Lru);
        for k in 0..4 {
            c.access(k, false, ALL4, true);
        }
        let dropped = c.invalidate_all();
        assert_eq!(dropped, 4);
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats().writebacks, 4, "dirty lines written back");
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = small(PolicyKind::Lru);
        c.access(1, false, ALL4, false);
        c.access(1, false, ALL4, false);
        c.access(1, false, ALL4, false);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }

    #[test]
    fn multiple_sets_do_not_interfere() {
        let mut c = SetAssocCache::new(4, 2, PolicyKind::Lru, WayMask::lower(1));
        let all = WayMask::all(2);
        // keys 0..8 map to 4 sets, 2 per set → everything fits
        for k in 0..8 {
            c.access(k, false, all, false);
        }
        for k in 0..8 {
            assert!(c.access(k, false, all, false).hit, "key {k}");
        }
    }

    #[test]
    #[should_panic(expected = "harvest mask exceeds")]
    fn oversized_harvest_mask_panics() {
        SetAssocCache::new(1, 2, PolicyKind::Lru, WayMask::lower(4));
    }
}
