//! The FR-FCFS re-order pending request queue.
//!
//! Every pending request sits in its flat bank's list, oldest first, tagged
//! with its arrival sequence number. The scheduler's four questions are
//! then short scans:
//!
//! * the oldest request (the DMS gate) is the smallest front over the banks
//!   with pending work,
//! * a bank's oldest request (row management) is that bank's front,
//! * a row's oldest request (row hits), its *visible RBL* and whether it
//!   holds only global reads (AMS) each scan one bank's list.
//!
//! A 128-entry queue over 16 banks holds about 8 requests per bank, so each
//! scan is a few cache lines. Removal searches one bank's list and keeps
//! the rest in order.

use lazydram_common::snap::Saver;
use lazydram_common::{Request, RequestId};

/// Error returned when enqueueing into a full pending queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("pending queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// Bounded FCFS-ordered pending queue of one memory controller.
#[derive(Debug, Clone)]
pub struct PendingQueue {
    capacity: usize,
    banks_per_group: usize,
    next_seq: u64,
    /// Per flat bank: `(arrival sequence number, request)`, oldest first.
    banks: Vec<Vec<(u64, Request)>>,
    /// Bit `b` set iff `banks[b]` is non-empty.
    bank_mask: u64,
    len: usize,
}

impl PendingQueue {
    /// Creates an empty queue with the given capacity, for a channel with
    /// `banks` banks grouped in `banks_per_group`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `banks` is zero.
    pub fn new(capacity: usize, banks: usize, banks_per_group: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(banks > 0, "need at least one bank");
        assert!(banks <= 64, "the bank bitmask caps a channel at 64 banks");
        Self {
            capacity,
            banks_per_group,
            next_seq: 0,
            banks: vec![Vec::new(); banks],
            bank_mask: 0,
            len: 0,
        }
    }

    /// Bitmask of flat banks with at least one pending request.
    pub fn bank_mask(&self) -> u64 {
        self.bank_mask
    }

    /// Current number of pending requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when the queue cannot accept another request.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Appends a request in FCFS order.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the queue is at capacity; the caller must
    /// apply backpressure (the request stays in the interconnect).
    pub fn push(&mut self, req: Request) -> Result<(), QueueFull> {
        if self.is_full() {
            return Err(QueueFull);
        }
        let bank = req.loc.flat_bank(self.banks_per_group);
        self.banks[bank].push((self.next_seq, req));
        self.next_seq += 1;
        self.bank_mask |= 1 << bank;
        self.len += 1;
        Ok(())
    }

    /// The oldest pending request, if any.
    pub fn oldest(&self) -> Option<&Request> {
        self.banks
            .iter()
            .filter_map(|b| b.first())
            .min_by_key(|(seq, _)| *seq)
            .map(|(_, r)| r)
    }

    /// The oldest pending request destined to `bank`, with its sequence
    /// number.
    pub fn oldest_for_bank(&self, bank: usize) -> Option<(u64, &Request)> {
        self.banks[bank].first().map(|(seq, r)| (*seq, r))
    }

    /// The oldest pending request destined to `(bank, row)`, with its
    /// sequence number.
    pub fn oldest_for_row(&self, bank: usize, row: u32) -> Option<(u64, &Request)> {
        self.row(bank, row).next().map(|(seq, r)| (*seq, r))
    }

    /// `(bank, row)`'s pending requests, oldest first.
    fn row(&self, bank: usize, row: u32) -> impl Iterator<Item = &(u64, Request)> {
        self.banks[bank]
            .iter()
            .filter(move |(_, r)| r.loc.row == row)
    }

    /// Removes and returns the request with `id` from `bank`.
    pub fn remove(&mut self, bank: usize, id: RequestId) -> Option<Request> {
        let list = &mut self.banks[bank];
        let pos = list.iter().position(|(_, r)| r.id == id)?;
        let (_, req) = list.remove(pos);
        if list.is_empty() {
            self.bank_mask &= !(1 << bank);
        }
        self.len -= 1;
        Some(req)
    }

    /// Visible RBL of a row: how many pending requests target `(bank, row)`.
    pub fn visible_rbl(&self, bank: usize, row: u32) -> u32 {
        self.row(bank, row).count() as u32
    }

    /// `true` when every pending request destined to `(bank, row)` is a
    /// global read (AMS safety criterion). Vacuously true for empty rows.
    pub fn row_is_all_global_reads(&self, bank: usize, row: u32) -> bool {
        self.row(bank, row).all(|(_, r)| r.is_global_read())
    }

    /// `true` when at least one pending request targets `(bank, row)`.
    pub fn any_for_row(&self, bank: usize, row: u32) -> bool {
        self.row(bank, row).next().is_some()
    }

    /// The pending requests in FCFS (oldest-first) order. Sorts every
    /// request; meant for tests and statistics, not the scheduler.
    pub fn iter(&self) -> impl Iterator<Item = &Request> {
        let mut all: Vec<&(u64, Request)> = self.banks.iter().flatten().collect();
        all.sort_unstable_by_key(|(seq, _)| *seq);
        all.into_iter().map(|(_, r)| r)
    }

    /// Serializes the next sequence number and each bank's list. Capacity
    /// and geometry are configuration and are *not* serialized.
    pub fn save_state(&self, s: &mut Saver) {
        s.u64("next_seq", self.next_seq);
        s.seq("banks", self.banks.len());
        for list in &self.banks {
            s.seq("bank", list.len());
            for (seq, r) in list {
                s.u64("seq", *seq);
                r.save_state(s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_common::{AccessKind, Location, MemSpace};

    fn req(id: u64, bank_in_group: u16, row: u32, kind: AccessKind) -> Request {
        Request {
            id: RequestId(id),
            addr: id * 128,
            loc: Location {
                channel: 0,
                bank_group: 0,
                bank_in_group,
                row,
                col: 0,
            },
            kind,
            space: MemSpace::Global,
            approximable: true,
            arrival: id,
        }
    }

    fn q() -> PendingQueue {
        PendingQueue::new(128, 16, 4)
    }

    #[test]
    fn fifo_order_and_capacity() {
        let mut q = PendingQueue::new(2, 16, 4);
        assert!(q.is_empty());
        q.push(req(1, 0, 0, AccessKind::Read)).unwrap();
        q.push(req(2, 0, 0, AccessKind::Read)).unwrap();
        assert!(q.is_full());
        assert_eq!(q.push(req(3, 0, 0, AccessKind::Read)), Err(QueueFull));
        assert_eq!(q.oldest().unwrap().id, RequestId(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_keeps_order_consistent() {
        let mut q = q();
        for i in 1..=4 {
            q.push(req(i, 0, 0, AccessKind::Read)).unwrap();
        }
        assert!(q.remove(0, RequestId(2)).is_some());
        assert!(q.remove(0, RequestId(99)).is_none());
        assert!(
            q.remove(1, RequestId(3)).is_none(),
            "request 3 is not in bank 1"
        );
        let ids: Vec<u64> = q.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![1, 3, 4]);
        q.remove(0, RequestId(1));
        assert_eq!(q.oldest().unwrap().id, RequestId(3));
    }

    #[test]
    fn per_bank_and_per_row_fronts() {
        let mut q = q();
        q.push(req(1, 0, 6, AccessKind::Read)).unwrap();
        q.push(req(2, 0, 5, AccessKind::Read)).unwrap();
        q.push(req(3, 0, 5, AccessKind::Read)).unwrap();
        q.push(req(4, 1, 5, AccessKind::Read)).unwrap(); // flat bank 1
        assert_eq!(q.oldest_for_bank(0).unwrap().1.id, RequestId(1));
        assert_eq!(q.oldest_for_bank(1).unwrap().1.id, RequestId(4));
        assert!(q.oldest_for_bank(2).is_none());
        assert_eq!(q.oldest_for_row(0, 5).unwrap().1.id, RequestId(2));
        assert!(q.oldest_for_row(0, 9).is_none());
        assert_eq!(q.bank_mask(), 0b11);
        // Sequence numbers order correctly across banks.
        let s0 = q.oldest_for_bank(0).unwrap().0;
        let s1 = q.oldest_for_bank(1).unwrap().0;
        assert!(s0 < s1);
    }

    #[test]
    fn visible_rbl_counts_and_updates_on_remove() {
        let mut q = q();
        q.push(req(1, 0, 5, AccessKind::Read)).unwrap();
        q.push(req(2, 0, 5, AccessKind::Read)).unwrap();
        q.push(req(3, 0, 6, AccessKind::Read)).unwrap();
        assert_eq!(q.visible_rbl(0, 5), 2);
        assert_eq!(q.visible_rbl(0, 6), 1);
        assert_eq!(q.visible_rbl(3, 5), 0);
        q.remove(0, RequestId(1));
        assert_eq!(q.visible_rbl(0, 5), 1);
        q.remove(0, RequestId(2));
        assert_eq!(q.visible_rbl(0, 5), 0);
        assert!(!q.any_for_row(0, 5));
        assert!(q.any_for_row(0, 6));
    }

    #[test]
    fn all_global_reads_tracks_mix() {
        let mut q = q();
        q.push(req(1, 0, 5, AccessKind::Read)).unwrap();
        assert!(q.row_is_all_global_reads(0, 5));
        q.push(req(2, 0, 5, AccessKind::Write)).unwrap();
        assert!(!q.row_is_all_global_reads(0, 5));
        q.remove(0, RequestId(2));
        assert!(q.row_is_all_global_reads(0, 5));
        assert!(q.row_is_all_global_reads(0, 99), "vacuous for empty rows");
    }

    #[test]
    fn heavy_churn_leaves_the_queue_empty() {
        let mut q = q();
        for round in 0..50u64 {
            for i in 0..10u64 {
                q.push(req(
                    round * 10 + i + 1,
                    (i % 4) as u16,
                    (i % 3) as u32,
                    AccessKind::Read,
                ))
                .unwrap();
            }
            for i in 0..10u64 {
                assert!(q
                    .remove((i % 4) as usize, RequestId(round * 10 + i + 1))
                    .is_some());
            }
            assert!(q.is_empty());
            assert!(q.oldest().is_none());
            assert_eq!(q.bank_mask(), 0);
        }
    }

    #[test]
    fn a_stream_of_fresh_rows_keeps_every_answer_exact() {
        // Every request opens a fresh row and eight stay in flight: the
        // answers for rows that have left must read empty at once.
        let mut q = PendingQueue::new(32, 16, 4);
        for i in 0..10_000u64 {
            let bank = (i % 4) as u16;
            q.push(req(i + 1, bank, i as u32, AccessKind::Write))
                .unwrap();
            if i >= 8 {
                let gone = i - 8;
                let gone_bank = (gone % 4) as usize;
                assert!(q.remove(gone_bank, RequestId(gone + 1)).is_some());
                assert!(!q.any_for_row(gone_bank, gone as u32));
                assert!(q.row_is_all_global_reads(gone_bank, gone as u32));
            }
            assert_eq!(q.visible_rbl(bank as usize, i as u32), 1);
            assert_eq!(q.len(), (i + 1).min(8) as usize);
        }
        let oldest = q.oldest().unwrap().id.0;
        assert_eq!(oldest, 10_000 - 7, "the oldest in-flight request");
        assert_eq!(
            q.oldest_for_bank(((oldest - 1) % 4) as usize)
                .unwrap()
                .1
                .id
                .0,
            oldest
        );
    }

    #[test]
    fn a_row_refilled_after_emptying_starts_clean() {
        let mut q = q();
        q.push(req(1, 0, 5, AccessKind::Write)).unwrap();
        q.remove(0, RequestId(1)).unwrap();
        assert_eq!(q.bank_mask(), 0);
        q.push(req(2, 0, 5, AccessKind::Read)).unwrap();
        assert_eq!(q.visible_rbl(0, 5), 1);
        assert!(
            q.row_is_all_global_reads(0, 5),
            "the departed write is forgotten"
        );
        assert_eq!(q.oldest_for_row(0, 5).unwrap().1.id, RequestId(2));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = PendingQueue::new(0, 16, 4);
    }
}
