//! A minimal latency/bandwidth interconnect model.
//!
//! Each direction of the crossbar is a set of [`DelayQueue`]s (one per
//! destination). Items become visible `latency` cycles after being pushed,
//! at most `width` items pop per cycle, and capacity is finite so upstream
//! producers experience backpressure — the property that makes the paper's
//! pending-queue-full effects (Figure 13) observable.

use lazydram_common::snap::Saver;
use std::collections::VecDeque;

/// Error returned when a [`DelayQueue`] is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocFull;

impl std::fmt::Display for NocFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("interconnect queue is full")
    }
}

impl std::error::Error for NocFull {}

/// A fixed-latency, bounded, in-order queue.
#[derive(Debug, Clone)]
pub struct DelayQueue<T> {
    items: VecDeque<(u64, T)>,
    latency: u64,
    capacity: usize,
    width: usize,
    popped_this_cycle: usize,
    current_cycle: u64,
    /// The ready stamp of the item [`DelayQueue::pop_ready`] delivered
    /// last, which [`DelayQueue::push_front`] restores.
    last_popped_ready: u64,
}

impl<T> DelayQueue<T> {
    /// Creates a queue delivering items `latency` cycles after push, holding
    /// at most `capacity` items, releasing at most `width` per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `width` is zero.
    pub fn new(latency: u64, capacity: usize, width: usize) -> Self {
        assert!(capacity > 0 && width > 0);
        Self {
            items: VecDeque::new(),
            latency,
            capacity,
            width,
            popped_this_cycle: 0,
            current_cycle: 0,
            last_popped_ready: 0,
        }
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `true` when another push would fail.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// Remaining capacity. Saturates at zero: the phased tick commits
    /// staged requests past capacity (see [`DelayQueue::push_unchecked`]),
    /// so `len` can transiently exceed `capacity`.
    pub fn free(&self) -> usize {
        self.capacity.saturating_sub(self.items.len())
    }

    /// Pushes an item at time `now`; it becomes poppable at `now + latency`.
    ///
    /// # Errors
    ///
    /// Returns [`NocFull`] when the queue is at capacity.
    pub fn push(&mut self, now: u64, item: T) -> Result<(), NocFull> {
        if self.is_full() {
            return Err(NocFull);
        }
        self.items.push_back((now + self.latency, item));
        Ok(())
    }

    /// Pushes an item at time `now` without a capacity check.
    ///
    /// Used by phase B of the tick: each producer reserved its slots
    /// against a cycle-start snapshot of `free()`, and because every
    /// producer sees the *same* snapshot the sum of reservations can exceed
    /// the true remaining capacity by design — the queue absorbs the
    /// overflow and backpressure surfaces through `free()` (saturating to
    /// zero) on the next cycle. Never use this from a path that has not
    /// reserved via a `free()` snapshot.
    pub fn push_unchecked(&mut self, now: u64, item: T) {
        self.items.push_back((now + self.latency, item));
    }

    /// Pops the next ready item at time `now`, honoring the per-cycle width.
    pub fn pop_ready(&mut self, now: u64) -> Option<T> {
        if now != self.current_cycle {
            self.current_cycle = now;
            self.popped_this_cycle = 0;
        }
        if self.popped_this_cycle >= self.width {
            return None;
        }
        match self.items.front() {
            Some(&(ready, _)) if ready <= now => {
                self.popped_this_cycle += 1;
                self.last_popped_ready = ready;
                self.items.pop_front().map(|(_, t)| t)
            }
            _ => None,
        }
    }

    /// Whether [`DelayQueue::pop_ready`] would deliver an item at `now`.
    pub fn poll(&self, now: u64) -> bool {
        (now != self.current_cycle || self.popped_this_cycle < self.width)
            && self.items.front().is_some_and(|&(ready, _)| ready <= now)
    }

    /// Returns the item the last [`DelayQueue::pop_ready`] delivered to
    /// the front of the queue, still poppable (used when a consumer must
    /// retry, e.g. downstream backpressure). The item keeps its own ready
    /// stamp, so a pop and its `push_front` leave the queue's contents as
    /// they found them.
    pub fn push_front(&mut self, item: T) {
        self.items.push_front((self.last_popped_ready, item));
        // The retried item does not consume width again this cycle either
        // way; callers stop processing after a push_front.
    }

    /// Serializes the queue's dynamic state. `save_item` writes one queued
    /// item; the latency/capacity/width are configuration and are not
    /// written. Nor is the per-cycle pop budget: it resets on the first
    /// pop of a later cycle, so at a pause it is dead, and its value only
    /// records when the loop last touched the queue.
    pub fn save_state(&self, s: &mut Saver, mut save_item: impl FnMut(&mut Saver, &T)) {
        s.seq("items", self.items.len());
        for (ready, item) in &self.items {
            s.u64("ready", *ready);
            save_item(s, item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_after_latency() {
        let mut q = DelayQueue::new(5, 8, 4);
        q.push(10, "a").unwrap();
        assert!(q.pop_ready(14).is_none());
        assert_eq!(q.pop_ready(15), Some("a"));
        assert!(q.pop_ready(15).is_none());
    }

    #[test]
    fn respects_width_per_cycle() {
        let mut q = DelayQueue::new(0, 8, 2);
        for i in 0..4 {
            q.push(0, i).unwrap();
        }
        assert_eq!(q.pop_ready(1), Some(0));
        assert_eq!(q.pop_ready(1), Some(1));
        assert!(q.pop_ready(1).is_none(), "width exhausted");
        assert_eq!(q.pop_ready(2), Some(2));
    }

    #[test]
    fn capacity_backpressure() {
        let mut q = DelayQueue::new(0, 2, 1);
        q.push(0, 1).unwrap();
        q.push(0, 2).unwrap();
        assert_eq!(q.push(0, 3), Err(NocFull));
        assert!(q.is_full());
        assert_eq!(q.free(), 0);
        q.pop_ready(1);
        assert!(q.push(1, 3).is_ok());
    }

    #[test]
    fn preserves_fifo_order() {
        let mut q = DelayQueue::new(3, 8, 8);
        q.push(0, "x").unwrap();
        q.push(1, "y").unwrap();
        assert_eq!(q.pop_ready(4), Some("x"));
        assert_eq!(q.pop_ready(4), Some("y"));
    }

    #[test]
    fn poll_predicts_pop_ready() {
        let mut q = DelayQueue::new(2, 8, 1);
        q.push(0, 'a').unwrap();
        q.push(0, 'b').unwrap();
        assert!(!q.poll(1), "not ready yet");
        assert!(q.poll(2));
        assert_eq!(q.pop_ready(2), Some('a'));
        assert!(!q.poll(2), "width spent");
        assert!(q.pop_ready(2).is_none());
        assert!(q.poll(3), "a new cycle has a fresh budget");
        assert_eq!(q.pop_ready(3), Some('b'));
        assert!(!q.poll(4), "empty");
    }

    #[test]
    fn push_front_retries_immediately() {
        let mut q = DelayQueue::new(10, 8, 8);
        q.push(0, 7).unwrap();
        let v = q.pop_ready(10).unwrap();
        q.push(10, 8).unwrap();
        q.push_front(v);
        assert!(q.poll(10), "the retry keeps its stamp");
        assert_eq!(q.pop_ready(10), Some(7));
        assert_eq!(q.pop_ready(11), None);
        assert_eq!(q.pop_ready(20), Some(8));
    }
}
