//! Byte-bounded response-frame caches (DESIGN.md §11).
//!
//! The plan cache and the route frame cache map request bytes to the
//! complete encoded response frame, so a repeat request is answered by
//! cloning a `Bytes` — no solve, no encode. Each is bounded by a constant
//! byte budget with clock (second-chance) eviction: a hit sets the entry's
//! referenced bit under the shared read lock, and an insert that needs room
//! advances the clock hand, clearing set bits (the entry survives this
//! pass) and evicting the first entry whose bit is already clear.

use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

/// Byte budget of the plan cache: over ten times what a 20 s `plan_serve`
/// benchmark run fills (4.5 MB).
pub(crate) const PLAN_CACHE_BYTES: usize = 64 << 20;

/// Byte budget of the route frame cache.
pub(crate) const ROUTE_CACHE_BYTES: usize = 16 << 20;

/// Bookkeeping charged per entry on top of its key and frame bytes: the
/// slot, the index entry and the `Bytes` handle.
const ENTRY_OVERHEAD: usize = 96;

struct Entry {
    key: Vec<u8>,
    frame: Bytes,
    referenced: AtomicBool,
}

impl Entry {
    fn cost(&self) -> usize {
        self.key.len() + self.frame.len() + ENTRY_OVERHEAD
    }
}

#[derive(Default)]
struct Clock {
    index: HashMap<Vec<u8>, usize>,
    entries: Vec<Entry>,
    hand: usize,
    bytes: usize,
}

/// A request-keyed cache of encoded response frames, bounded by bytes.
pub(crate) struct FrameCache {
    budget: usize,
    clock: RwLock<Clock>,
}

impl FrameCache {
    /// An empty cache that keeps at most `budget` bytes.
    pub(crate) fn new(budget: usize) -> Self {
        Self {
            budget,
            clock: RwLock::new(Clock::default()),
        }
    }

    /// The cached frame for `key`, marking the entry referenced.
    pub(crate) fn get(&self, key: &[u8]) -> Option<Bytes> {
        let clock = self.clock.read();
        let entry = &clock.entries[*clock.index.get(key)?];
        entry.referenced.store(true, Ordering::Relaxed);
        Some(entry.frame.clone())
    }

    /// Caches `frame` under `key`, evicting as the clock hand finds
    /// unreferenced entries until it fits; returns how many were evicted.
    /// A key already present keeps its frame, and a frame larger than the
    /// whole budget is not cached.
    pub(crate) fn insert(&self, key: &[u8], frame: Bytes) -> u64 {
        let entry = Entry {
            key: key.to_vec(),
            frame,
            referenced: AtomicBool::new(false),
        };
        let cost = entry.cost();
        if cost > self.budget {
            return 0;
        }
        let mut clock = self.clock.write();
        if clock.index.contains_key(key) {
            return 0;
        }
        let mut evicted = 0;
        while clock.bytes + cost > self.budget {
            if clock.hand >= clock.entries.len() {
                clock.hand = 0;
            }
            let hand = clock.hand;
            if clock.entries[hand]
                .referenced
                .swap(false, Ordering::Relaxed)
            {
                clock.hand += 1;
                continue;
            }
            let gone = clock.entries.swap_remove(hand);
            clock.index.remove(&gone.key);
            clock.bytes -= gone.cost();
            if let Some(moved) = clock.entries.get(hand) {
                let key = moved.key.clone();
                clock.index.insert(key, hand);
            }
            evicted += 1;
        }
        clock.bytes += cost;
        let slot = clock.entries.len();
        clock.index.insert(entry.key.clone(), slot);
        clock.entries.push(entry);
        evicted
    }

    /// Bytes currently charged against the budget.
    #[cfg(test)]
    pub(crate) fn bytes(&self) -> usize {
        self.clock.read().bytes
    }

    /// Whether nothing is cached.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.clock.read().entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(n: usize) -> Bytes {
        Bytes::from(vec![7u8; n])
    }

    #[test]
    fn inserts_past_the_budget_evict_and_a_recent_hit_survives_the_sweep() {
        // Room for exactly four 100-byte entries with 4-byte keys.
        let per_entry = 4 + 100 + ENTRY_OVERHEAD;
        let cache = FrameCache::new(4 * per_entry);
        for k in 0u32..4 {
            assert_eq!(cache.insert(&k.to_be_bytes(), frame(100)), 0);
        }
        assert_eq!(cache.bytes(), 4 * per_entry);
        // Entry 0 is hit; the next insert's sweep must pass over it and
        // evict entry 1, the oldest one not hit since the last sweep.
        assert!(cache.get(&0u32.to_be_bytes()).is_some());
        assert_eq!(cache.insert(&4u32.to_be_bytes(), frame(100)), 1);
        assert!(
            cache.get(&0u32.to_be_bytes()).is_some(),
            "hit entry evicted"
        );
        assert!(cache.get(&1u32.to_be_bytes()).is_none());
        assert!(cache.bytes() <= 4 * per_entry);

        // Many more inserts: the kept bytes never pass the budget, and
        // every insert past it is paid for by evictions.
        let mut evicted = 1;
        for k in 5u32..40 {
            evicted += cache.insert(&k.to_be_bytes(), frame(100));
            assert!(cache.bytes() <= 4 * per_entry);
        }
        assert_eq!(evicted, 40 - 4);
        assert!(cache.get(&39u32.to_be_bytes()).is_some());
    }

    #[test]
    fn oversized_frames_and_repeat_keys_are_not_cached_twice() {
        let cache = FrameCache::new(1024);
        assert_eq!(cache.insert(b"big", frame(4096)), 0);
        assert!(cache.is_empty());
        cache.insert(b"k", frame(10));
        let before = cache.bytes();
        cache.insert(b"k", frame(20));
        assert_eq!(cache.bytes(), before);
        assert_eq!(cache.get(b"k").unwrap().len(), 10, "first frame kept");
    }
}
