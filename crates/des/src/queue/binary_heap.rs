//! Stable binary-heap pending-event set.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use super::EventQueue;
use crate::time::SimTime;

/// One heap entry. Ordered by `(time, seq)` so the heap is a *stable*
/// min-queue: `seq` is a monotone insertion counter that breaks time ties in
/// FIFO order.
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A stable min-priority event queue over `std::collections::BinaryHeap`.
///
/// O(log n) schedule and pop; this is the simulator default. See the
/// [module docs](super) for the stability contract.
pub struct BinaryHeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> BinaryHeapQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// An empty queue with space for `cap` events before reallocating.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }
}

impl<T> Default for BinaryHeapQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> for BinaryHeapQueue<T> {
    fn schedule(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            payload,
        });
    }

    fn pop(&mut self) -> Option<(SimTime, T)> {
        self.heap.pop().map(|e| (e.time, e.payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = BinaryHeapQueue::new();
        let times = [50u64, 3, 99, 7, 7, 0, 42];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_secs(t), i);
        }
        let mut out = Vec::new();
        while let Some((t, _)) = q.pop() {
            out.push(t.as_secs());
        }
        let mut sorted = times.to_vec();
        sorted.sort_unstable();
        assert_eq!(out, sorted);
    }

    #[test]
    fn equal_times_fifo() {
        let mut q = BinaryHeapQueue::new();
        let t = SimTime::from_secs(1);
        q.schedule(t, "a");
        q.schedule(t, "b");
        q.schedule(t, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn with_capacity_tracks_len() {
        let mut q = BinaryHeapQueue::with_capacity(16);
        assert_eq!(q.len(), 0);
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
