//! Identity newtypes shared across the simulation stack.
//!
//! These live in the substrate crate so that the memory hierarchy, hardware
//! queue controller, and server model can all name the same VM or core
//! without depending on each other (C-NEWTYPE).

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u16);

        impl $name {
            /// Index into dense per-entity arrays.
            #[inline]
            #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u16> for $name {
            fn from(v: u16) -> Self {
                $name(v)
            }
        }

        impl From<usize> for $name {
            fn from(v: usize) -> Self {
                $name(u16::try_from(v).expect("id out of range"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A virtual machine on a server. VM 0..n-1 are Primary VMs, the last is
    /// conventionally the Harvest VM (the server model enforces this).
    VmId,
    "vm"
);

id_type!(
    /// A physical core on a server (0..36 in the paper's configuration).
    CoreId,
    "core"
);

id_type!(
    /// A server in the cluster (0..8 in the paper's configuration).
    ServerId,
    "srv"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let v = VmId::from(3u16);
        assert_eq!(v.index(), 3);
        assert_eq!(v.to_string(), "vm3");
        assert_eq!(CoreId::from(35usize).to_string(), "core35");
        assert_eq!(ServerId(7).to_string(), "srv7");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(VmId(2) < VmId(10));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversize_index_panics() {
        let _ = CoreId::from(100_000usize);
    }
}
