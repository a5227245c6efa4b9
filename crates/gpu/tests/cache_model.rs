//! Model-based property test: the tag-only cache must implement exact LRU.

use lazydram_gpu::{AccessResult, Cache};
use proptest::prelude::*;

/// Naive LRU reference.
struct ModelCache {
    sets: Vec<Vec<(u64, bool)>>, // most-recent at the back
    ways: usize,
}

impl ModelCache {
    fn new(sets: usize, ways: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            ways,
        }
    }
    fn set_of(&self, line: u64) -> usize {
        ((line / 128) % self.sets.len() as u64) as usize
    }
    fn access(&mut self, line: u64, write: bool) -> bool {
        let s = self.set_of(line);
        if let Some(pos) = self.sets[s].iter().position(|&(l, _)| l == line) {
            let (l, d) = self.sets[s].remove(pos);
            self.sets[s].push((l, d || write));
            true
        } else {
            false
        }
    }
    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        let s = self.set_of(line);
        if let Some(pos) = self.sets[s].iter().position(|&(l, _)| l == line) {
            let (l, d) = self.sets[s].remove(pos);
            self.sets[s].push((l, d || dirty));
            return None;
        }
        let evicted = if self.sets[s].len() >= self.ways {
            Some(self.sets[s].remove(0))
        } else {
            None
        };
        self.sets[s].push((line, dirty));
        evicted
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access { line: u16, write: bool },
    Fill { line: u16, dirty: bool },
    Invalidate { line: u16 },
}

fn ops() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u16>(), any::<bool>()).prop_map(|(line, write)| Op::Access { line, write }),
        (any::<u16>(), any::<bool>()).prop_map(|(line, dirty)| Op::Fill { line, dirty }),
        any::<u16>().prop_map(|line| Op::Invalidate { line }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn cache_is_exact_lru(ops in prop::collection::vec(ops(), 1..400)) {
        // 8 sets × 4 ways.
        let mut c = Cache::new(8 * 4 * 128, 4, 128);
        let mut m = ModelCache::new(8, 4);
        for op in ops {
            match op {
                Op::Access { line, write } => {
                    let line = u64::from(line) * 128;
                    let hit = m.access(line, write);
                    let got = c.access(line, write) == AccessResult::Hit;
                    prop_assert_eq!(got, hit, "access mismatch at {}", line);
                }
                Op::Fill { line, dirty } => {
                    let line = u64::from(line) * 128;
                    let expect = m.fill(line, dirty);
                    let got = c.fill(line, dirty);
                    prop_assert_eq!(got, expect, "fill/eviction mismatch at {}", line);
                }
                Op::Invalidate { line } => {
                    let line = u64::from(line) * 128;
                    let s = m.set_of(line);
                    let expect = m.sets[s]
                        .iter()
                        .position(|&(l, _)| l == line)
                        .map(|pos| m.sets[s].remove(pos).1);
                    let got = c.invalidate(line);
                    prop_assert_eq!(got, expect, "invalidate mismatch at {}", line);
                }
            }
        }
    }
}
