//! Memory-access descriptors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)] // hot path: DESIGN.md §12

use hh_sim::VmId;
use serde::{Deserialize, Serialize};

/// Whether a page is shared across invocations of a service or private to a
/// single invocation (paper Section 4.2.2).
///
/// Shared pages are program code, libraries, read-only inputs and anything
/// allocated before the service enters its serve loop; private pages are
/// allocated by the thread handling one invocation. HardHarvest stores this
/// as a `Shared` bit in the page-table entry, copied into TLB entries and
/// used by the replacement algorithm to steer lines between regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PageClass {
    /// Reused across invocations; steered to the non-harvest region.
    Shared,
    /// Local to one invocation; steered to the harvest region.
    Private,
}

impl PageClass {
    /// True for [`PageClass::Shared`].
    #[inline]
    pub fn is_shared(self) -> bool {
        matches!(self, PageClass::Shared)
    }
}

/// The kind of memory reference a core issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// Instruction fetch; goes through the L1I and the I-side TLB.
    InstrFetch,
    /// Data load.
    DataRead,
    /// Data store.
    DataWrite,
}

impl AccessKind {
    /// Whether the access writes (marks lines dirty).
    #[inline]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::DataWrite)
    }

    /// Whether the access is an instruction fetch.
    #[inline]
    pub fn is_ifetch(self) -> bool {
        matches!(self, AccessKind::InstrFetch)
    }
}

/// One memory reference, as produced by the workload address-stream
/// generators and consumed by [`crate::CoreMem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Access {
    /// Byte address. Address spaces are per-VM; the simulator namespaces
    /// them by placing the VM id in high bits, so cross-VM aliasing is
    /// impossible by construction.
    pub addr: u64,
    /// Fetch/read/write.
    pub kind: AccessKind,
    /// Shared-vs-private classification of the page (instruction pages are
    /// always shared, per Section 4.2.3).
    pub class: PageClass,
    /// Issuing VM.
    pub vm: VmId,
}

impl Access {
    /// Convenience constructor namespacing `addr` into `vm`'s address space.
    ///
    /// # Example
    ///
    /// ```
    /// use hh_mem::{Access, AccessKind, PageClass};
    /// use hh_sim::VmId;
    ///
    /// let a = Access::new(VmId(2), 0x1000, AccessKind::DataRead, PageClass::Private);
    /// assert_eq!(a.vm, VmId(2));
    /// assert_ne!(
    ///     a.addr,
    ///     Access::new(VmId(3), 0x1000, AccessKind::DataRead, PageClass::Private).addr,
    /// );
    /// ```
    pub fn new(vm: VmId, addr: u64, kind: AccessKind, class: PageClass) -> Self {
        debug_assert!(addr < 1 << 48, "address exceeds modeled physical space");
        Access {
            addr: ((vm.0 as u64) << 48) | addr,
            kind,
            class,
            vm,
        }
    }

    /// Cache-line address (64-byte lines).
    #[inline]
    pub fn line(&self) -> u64 {
        self.addr >> 6
    }

    /// Page address (4 KiB pages).
    #[inline]
    pub fn page(&self) -> u64 {
        self.addr >> 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_namespacing_prevents_aliasing() {
        let a = Access::new(VmId(1), 0xABC0, AccessKind::DataRead, PageClass::Shared);
        let b = Access::new(VmId(2), 0xABC0, AccessKind::DataRead, PageClass::Shared);
        assert_ne!(a.line(), b.line());
        assert_ne!(a.page(), b.page());
    }

    #[test]
    fn line_and_page_extraction() {
        let a = Access::new(VmId(0), 0x1F40, AccessKind::DataWrite, PageClass::Private);
        assert_eq!(a.line(), 0x1F40 >> 6);
        assert_eq!(a.page(), 0x1);
        assert!(a.kind.is_write());
        assert!(!a.kind.is_ifetch());
    }

    #[test]
    fn class_predicates() {
        assert!(PageClass::Shared.is_shared());
        assert!(!PageClass::Private.is_shared());
        assert!(AccessKind::InstrFetch.is_ifetch());
        assert!(!AccessKind::DataRead.is_write());
    }
}
