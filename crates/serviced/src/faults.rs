//! Deterministic fault injection for chaos tests.
//!
//! A [`FaultPlan`] is a *script*, not a random process: every fault is
//! keyed by `(connection id, frame index)` for wire faults or
//! `(connection id, request index)` for search faults, where both
//! counters start at 0 and increase by one per frame/request on that
//! connection.  Connection ids are assigned in accept order.  Running the
//! same workload against the same plan therefore produces the same blast
//! radius every time — chaos tests assert exact outcomes, the way
//! `concurrent_parity.rs` asserts coalescing.
//!
//! Wire faults act at the daemon's frame boundary (after a complete
//! inbound frame is peeled off, or before an outbound frame is written);
//! search faults act inside the serving layer's `before_search` hook, so
//! a [`SearchFault::KillLeader`] genuinely dies *after* coalescing
//! admission — its followers observe the cohort-wide `WorkerPanicked`
//! the serving layer's `LeaderGuard` publishes, which is the scenario
//! worth pinning.

use std::collections::HashMap;
use std::time::Duration;

/// What to do to one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Close the connection instead of processing/sending the frame.
    Drop,
    /// Deliver only the first `n` bytes, then close the connection
    /// (mid-frame truncation; the peer sees a short read then EOF).
    Truncate(usize),
    /// XOR the byte at `offset % len` with `mask` before processing —
    /// frame length intact, contents corrupted.
    Garble { offset: usize, mask: u8 },
    /// Sleep before processing/sending the frame.
    Delay(Duration),
}

/// What to do to one request's search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchFault {
    /// Panic in `before_search` — the leader dies mid-cohort exactly as
    /// if the DP itself had panicked.
    KillLeader,
    /// Sleep in `before_search`, holding the admission slot — the lever
    /// overload tests use to saturate the cold backlog deterministically.
    Delay(Duration),
}

/// A deterministic schedule of injected faults.  Empty by default;
/// builder methods register one fault per key (last write wins).
#[derive(Debug, Default)]
pub struct FaultPlan {
    inbound: HashMap<(u64, u64), FrameFault>,
    outbound: HashMap<(u64, u64), FrameFault>,
    search: HashMap<(u64, u64), SearchFault>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fault the `frame_idx`-th inbound frame of connection `conn_id`.
    pub fn inbound(mut self, conn_id: u64, frame_idx: u64, fault: FrameFault) -> Self {
        self.inbound.insert((conn_id, frame_idx), fault);
        self
    }

    /// Fault the `frame_idx`-th outbound frame of connection `conn_id`.
    pub fn outbound(mut self, conn_id: u64, frame_idx: u64, fault: FrameFault) -> Self {
        self.outbound.insert((conn_id, frame_idx), fault);
        self
    }

    /// Fault the `req_idx`-th optimize request of connection `conn_id`.
    pub fn search(mut self, conn_id: u64, req_idx: u64, fault: SearchFault) -> Self {
        self.search.insert((conn_id, req_idx), fault);
        self
    }

    /// Look up the inbound fault for a frame, if scripted.
    pub fn inbound_fault(&self, conn_id: u64, frame_idx: u64) -> Option<FrameFault> {
        self.inbound.get(&(conn_id, frame_idx)).copied()
    }

    /// Look up the outbound fault for a frame, if scripted.
    pub fn outbound_fault(&self, conn_id: u64, frame_idx: u64) -> Option<FrameFault> {
        self.outbound.get(&(conn_id, frame_idx)).copied()
    }

    /// Look up the search fault for a request, if scripted.
    pub fn search_fault(&self, conn_id: u64, req_idx: u64) -> Option<SearchFault> {
        self.search.get(&(conn_id, req_idx)).copied()
    }

    /// True when no fault is scripted at all (the production fast path).
    pub fn is_empty(&self) -> bool {
        self.inbound.is_empty() && self.outbound.is_empty() && self.search.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_key_by_connection_and_index() {
        let plan = FaultPlan::new()
            .inbound(0, 2, FrameFault::Drop)
            .outbound(1, 0, FrameFault::Truncate(3))
            .search(2, 1, SearchFault::KillLeader);
        assert_eq!(plan.inbound_fault(0, 2), Some(FrameFault::Drop));
        assert_eq!(plan.inbound_fault(0, 1), None);
        assert_eq!(plan.inbound_fault(1, 2), None);
        assert_eq!(plan.outbound_fault(1, 0), Some(FrameFault::Truncate(3)));
        assert_eq!(plan.search_fault(2, 1), Some(SearchFault::KillLeader));
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }
}
