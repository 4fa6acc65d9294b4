//! Strongly-typed identifiers for the hardware entities in the simulator.
//!
//! Using newtypes instead of bare `usize` prevents a whole class of
//! cross-wiring bugs (e.g. indexing the L2 slice vector with a core id)
//! while compiling down to plain integers.

use std::fmt;

macro_rules! define_id {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub usize);

        impl $name {
            /// Creates an identifier from a raw index.
            #[inline]
            pub const fn new(raw: usize) -> Self {
                $name(raw)
            }

            /// Returns the raw index, for container indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0
            }
        }

        impl From<usize> for $name {
            fn from(raw: usize) -> Self {
                $name(raw)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

define_id!(
    /// Identifies a GPU core (compute unit).
    CoreId,
    "core"
);
define_id!(
    /// Identifies a wavefront (warp) within a core.
    WavefrontId,
    "wf"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_their_prefix() {
        let c = CoreId::new(7);
        assert_eq!(c.index(), 7);
        assert_eq!(c.to_string(), "core7");
        assert_eq!(WavefrontId::new(0).to_string(), "wf0");
    }

    #[test]
    fn ids_order_by_index() {
        assert!(CoreId::new(1) < CoreId::new(2));
        assert_eq!(CoreId::from(4), CoreId::new(4));
    }
}
