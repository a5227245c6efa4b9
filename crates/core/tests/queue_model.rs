//! Model-based property test: the pending queue must behave exactly like a
//! naive reference implementation under arbitrary push/remove
//! interleavings, at every queue size the sweeps use, with requests spread
//! over all banks or piled onto one.

use lazydram_common::{AccessKind, Location, MemSpace, Request, RequestId};
use lazydram_core::PendingQueue;
use proptest::prelude::*;

const BANKS: usize = 16;
const ROWS: usize = 6;

#[derive(Debug, Clone)]
enum Op {
    Push { bank: u8, row: u8, write: bool },
    RemoveOldest,
    RemoveOldestForBank { bank: u8 },
    RemoveOldestForRow { bank: u8, row: u8 },
}

/// Queue sizes: the paper's 128, the smallest and largest the fig02 and
/// fig13 sweeps use, and a tiny one that is full most of the time.
fn capacity() -> impl Strategy<Value = usize> {
    (0usize..4).prop_map(|i| [4, 16, 128, 256][i])
}

fn push(banks: std::ops::Range<u8>) -> impl Strategy<Value = Op> {
    (banks, 0u8..ROWS as u8, any::<bool>()).prop_map(|(bank, row, write)| Op::Push {
        bank,
        row,
        write,
    })
}

fn removal() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::RemoveOldest),
        (0u8..BANKS as u8).prop_map(|bank| Op::RemoveOldestForBank { bank }),
        (0u8..BANKS as u8, 0u8..ROWS as u8)
            .prop_map(|(bank, row)| Op::RemoveOldestForRow { bank, row }),
    ]
}

/// Requests spread over every bank.
fn spread_op() -> impl Strategy<Value = Op> {
    prop_oneof![push(0..BANKS as u8), removal(), removal()]
}

/// Most requests go to bank 3, so its list grows towards the capacity.
fn one_bank_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        push(3..4),
        push(3..4),
        push(3..4),
        push(0..BANKS as u8),
        removal(),
        removal(),
    ]
}

fn mk(id: u64, bank: u8, row: u8, write: bool) -> Request {
    Request {
        id: RequestId(id),
        addr: id * 128,
        loc: Location {
            channel: 0,
            bank_group: (bank % 4) as u16,
            bank_in_group: (bank / 4) as u16,
            row: u32::from(row),
            col: 0,
        },
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
        space: MemSpace::Global,
        approximable: true,
        arrival: id,
    }
}

fn flat(r: &Request) -> usize {
    r.loc.flat_bank(4)
}

/// Naive reference: FCFS Vec.
#[derive(Default)]
struct Model {
    items: Vec<Request>,
}

impl Model {
    fn oldest(&self) -> Option<&Request> {
        self.items.first()
    }
    fn oldest_for_bank(&self, bank: usize) -> Option<&Request> {
        self.items.iter().find(|r| flat(r) == bank)
    }
    fn oldest_for_row(&self, bank: usize, row: u32) -> Option<&Request> {
        self.items
            .iter()
            .find(|r| flat(r) == bank && r.loc.row == row)
    }
    /// `(visible RBL, all global reads)` of every `(bank, row)`.
    fn rows(&self) -> [[(u32, bool); ROWS]; BANKS] {
        let mut rows = [[(0, true); ROWS]; BANKS];
        for r in &self.items {
            let e = &mut rows[flat(r)][r.loc.row as usize];
            e.0 += 1;
            e.1 &= r.is_global_read();
        }
        rows
    }
    fn remove(&mut self, id: RequestId) -> Request {
        let pos = self.items.iter().position(|r| r.id == id).unwrap();
        self.items.remove(pos)
    }
}

fn check(capacity: usize, ops: Vec<Op>) -> Result<(), TestCaseError> {
    let mut q = PendingQueue::new(capacity, BANKS, 4);
    let mut m = Model::default();
    let mut next_id = 0u64;
    for op in ops {
        // The request the op removes, as the model names it.
        let victim = match op {
            Op::Push { bank, row, write } => {
                next_id += 1;
                let r = mk(next_id, bank, row, write);
                prop_assert_eq!(q.is_full(), m.items.len() >= capacity);
                if !q.is_full() {
                    q.push(r).unwrap();
                    m.items.push(r);
                }
                None
            }
            Op::RemoveOldest => {
                let expect = m.oldest().map(|r| r.id);
                prop_assert_eq!(q.oldest().map(|r| r.id), expect, "oldest mismatch");
                expect
            }
            Op::RemoveOldestForBank { bank } => {
                let bank = bank as usize;
                let expect = m.oldest_for_bank(bank).map(|r| r.id);
                let got = q.oldest_for_bank(bank).map(|(_, r)| r.id);
                prop_assert_eq!(got, expect, "oldest_for_bank mismatch");
                expect
            }
            Op::RemoveOldestForRow { bank, row } => {
                let (bank, row) = (bank as usize, u32::from(row));
                let expect = m.oldest_for_row(bank, row).map(|r| r.id);
                let got = q.oldest_for_row(bank, row).map(|(_, r)| r.id);
                prop_assert_eq!(got, expect, "oldest_for_row mismatch");
                expect
            }
        };
        if let Some(id) = victim {
            let r = m.remove(id);
            prop_assert_eq!(q.remove(flat(&r), id), Some(r));
        }
        // Cross-check aggregate views after every step.
        prop_assert_eq!(q.len(), m.items.len());
        let mask = m.items.iter().fold(0u64, |mask, r| mask | 1 << flat(r));
        prop_assert_eq!(q.bank_mask(), mask);
        for (bank, rows) in m.rows().iter().enumerate() {
            for (row, &(rbl, all_reads)) in rows.iter().enumerate() {
                let row = row as u32;
                prop_assert_eq!(q.visible_rbl(bank, row), rbl);
                prop_assert_eq!(q.row_is_all_global_reads(bank, row), all_reads);
                prop_assert_eq!(q.any_for_row(bank, row), rbl > 0);
            }
        }
    }
    // Final FCFS iteration order must match.
    let got: Vec<u64> = q.iter().map(|r| r.id.0).collect();
    let expect: Vec<u64> = m.items.iter().map(|r| r.id.0).collect();
    prop_assert_eq!(got, expect);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn queue_matches_reference(
        capacity in capacity(),
        ops in prop::collection::vec(spread_op(), 1..200),
    ) {
        check(capacity, ops)?;
    }

    #[test]
    fn queue_matches_reference_with_one_bank_heavy(
        capacity in capacity(),
        ops in prop::collection::vec(one_bank_op(), 1..400),
    ) {
        check(capacity, ops)?;
    }
}
