//! Wavefront-level instructions.

use dcl1_common::LineAddr;

/// What a memory instruction does to the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// Global load: served by the (DC-)L1.
    Load,
    /// Global store: write-evict at the L1, write-through to the L2.
    Store,
    /// Atomic: bypasses the (DC-)L1, executed at the L2/MC (paper §III).
    Atomic,
    /// Non-L1 fetch (instruction / texture / constant miss): bypasses the
    /// DC-L1 cache (Q1→Q3 in paper Fig 3) and is served by the L2.
    Aux,
}

impl MemKind {
}

/// One coalesced memory transaction: a line and the bytes actually needed
/// from it (the DC-L1 returns only these bytes to the core, paper §III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Target cache line.
    pub line: LineAddr,
    /// Bytes of the line the wavefront actually reads/writes (32..=128).
    pub bytes: u32,
}

/// A memory instruction after coalescing: one or more line transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemInstr {
    /// Access kind.
    pub kind: MemKind,
    /// Coalesced per-line transactions (nonempty).
    pub accesses: Vec<MemAccess>,
}

/// One instruction from a wavefront's trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WavefrontInstr {
    /// Arithmetic work occupying the wavefront for `latency` cycles after
    /// issue (the issue slot itself is one cycle).
    Alu {
        /// Cycles until the wavefront is ready again.
        latency: u32,
    },
    /// A memory instruction; the wavefront blocks until all its accesses
    /// complete.
    Mem(MemInstr),
    /// End of the wavefront's work.
    Done,
}
