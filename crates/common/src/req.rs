//! The memory-request representation exchanged between the GPU substrate,
//! the memory controller and the DRAM model.

use crate::addr::Location;

/// Globally unique identifier of a DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// Whether a request reads or writes DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (load miss or fetch).
    Read,
    /// A write (dirty writeback or write-through store).
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }
}

/// The memory space a request originates from. AMS only ever approximates
/// requests from the global space (Section II-D: "global read requests").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemSpace {
    /// Global device memory (approximable when annotated).
    Global,
    /// Anything else (instruction fetch, local spill, writeback metadata…).
    Other,
}

/// One DRAM request as seen by a memory controller's pending queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Unique id, used to route the response back to the originator.
    pub id: RequestId,
    /// Line-aligned byte address.
    pub addr: u64,
    /// Decomposed DRAM location of `addr` (cached at enqueue time).
    pub loc: Location,
    /// Read or write.
    pub kind: AccessKind,
    /// Originating memory space.
    pub space: MemSpace,
    /// `pragma pred_var` annotation: the programmer marked the data this
    /// request touches as error-tolerant, so AMS may approximate it.
    pub approximable: bool,
    /// Memory-cycle timestamp at which the request entered the pending queue.
    pub arrival: u64,
}

impl Request {
    /// Returns `true` if this is a global read, the only category AMS may drop.
    pub fn is_global_read(&self) -> bool {
        self.kind.is_read() && self.space == MemSpace::Global
    }

    /// Age of the request, in memory cycles, at time `now`.
    pub fn age(&self, now: u64) -> u64 {
        now.saturating_sub(self.arrival)
    }

    /// Serializes the request into a snapshot.
    pub fn save_state(&self, s: &mut crate::snap::Saver) {
        s.u64("id", self.id.0);
        s.u64("addr", self.addr);
        s.u16("channel", self.loc.channel);
        s.u16("bank_group", self.loc.bank_group);
        s.u16("bank_in_group", self.loc.bank_in_group);
        s.u32("row", self.loc.row);
        s.u16("col", self.loc.col);
        s.bool("is_read", self.kind.is_read());
        s.bool("is_global", self.space == MemSpace::Global);
        s.bool("approximable", self.approximable);
        s.u64("arrival", self.arrival);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kind: AccessKind, space: MemSpace) -> Request {
        Request {
            id: RequestId(7),
            addr: 0x1000,
            loc: Location {
                channel: 0,
                bank_group: 0,
                bank_in_group: 0,
                row: 2,
                col: 0,
            },
            kind,
            space,
            approximable: true,
            arrival: 100,
        }
    }

    #[test]
    fn global_read_detection() {
        assert!(sample(AccessKind::Read, MemSpace::Global).is_global_read());
        assert!(!sample(AccessKind::Write, MemSpace::Global).is_global_read());
        assert!(!sample(AccessKind::Read, MemSpace::Other).is_global_read());
    }

    #[test]
    fn age_saturates_before_arrival() {
        let r = sample(AccessKind::Read, MemSpace::Global);
        assert_eq!(r.age(90), 0);
        assert_eq!(r.age(100), 0);
        assert_eq!(r.age(228), 128);
    }

    #[test]
    fn request_id_displays_compactly() {
        assert_eq!(RequestId(42).to_string(), "req#42");
    }
}
