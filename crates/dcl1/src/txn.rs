//! Memory transactions flowing between cores, DC-L1 nodes and the L2.

use dcl1_common::{CoreId, Cycle, LineAddr, WavefrontId};
use dcl1_gpu::MemKind;

/// Globally unique transaction identifier.
pub(crate) type TxnId = u64;

/// One coalesced memory transaction in flight.
///
/// A wavefront memory instruction fans out into one `Txn` per coalesced
/// line access; the issuing wavefront blocks until all of them return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Txn {
    /// Unique id (diagnostics and ordering).
    pub id: TxnId,
    /// Issuing core.
    pub core: CoreId,
    /// Issuing wavefront slot within the core.
    pub wavefront: WavefrontId,
    /// Target line.
    pub line: LineAddr,
    /// Bytes of the line the core actually needs (what the DC-L1 sends
    /// back over NoC#1, paper §III).
    pub bytes: u32,
    /// Access kind.
    pub kind: MemKind,
    /// Core cycle at which the instruction issued (round-trip-time stats).
    pub issued_at: Cycle,
    /// Set by the (DC-)L1 node when the access hit its cache (statistics
    /// decomposition: hit RTT vs miss RTT).
    pub l1_hit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_is_compact_and_copyable() {
        // The simulator copies transactions through queues by the million;
        // keep the struct small.
        assert!(std::mem::size_of::<Txn>() <= 48);
        let t = Txn {
            id: 1,
            core: CoreId::new(2),
            wavefront: WavefrontId::new(3),
            line: LineAddr::new(4),
            bytes: 128,
            kind: MemKind::Load,
            issued_at: 5,
            l1_hit: false,
        };
        let u = t;
        assert_eq!(t, u);
    }
}
