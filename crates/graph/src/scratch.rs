//! Dense, reusable scratch buffers for the sweep hot paths.
//!
//! Every sweep in this workspace — Louvain local moving, the G-/A-TxAllo
//! optimization phases, METIS boundary refinement — needs, per node, the
//! total edge weight from that node into each *bucket* (community, shard or
//! part) its neighbors belong to. The seed implementation gathered these
//! into a fresh `FxHashMap<u32, f64>` and then sorted a copied `Vec` of the
//! entries, per node, per sweep: three allocations plus hashing of every
//! neighbor on the hottest loop in the system (§VI-B6 of the paper puts
//! Louvain initialization at 67.6 s of G-TxAllo's 122.3 s).
//!
//! [`DenseAccumulator`] replaces that with the classic index-addressed
//! sparse-set: a dense `Vec<f64>` indexed by bucket id, an epoch-stamp
//! array marking which slots are live, and a touched-list recording the
//! buckets hit by the current node. `begin` is O(1) (it bumps the epoch
//! instead of zeroing), `add`/`get` are O(1) array accesses, and iterating
//! candidates in deterministic ascending-bucket order only sorts the
//! touched-list — whose length is the node's *distinct neighbor bucket*
//! count, typically a handful, instead of hashing and sorting every
//! neighbor entry.
//!
//! [`CandidateCache`] holds what a sweep keeps *between* visits: each
//! row's gathered `(bucket, weight)` candidate list, reused until a
//! neighbor moves. It is one flat, row-ordered arena rather than a vector
//! per row, so a sweep reads the cached lists in the order it visits rows.

use crate::traits::fit_u32;

/// Accumulates `f64` weights keyed by dense `u32` bucket ids, reusable
/// across sweep iterations without re-zeroing.
#[derive(Debug, Clone, Default)]
pub struct DenseAccumulator {
    weight: Vec<f64>,
    stamp: Vec<u64>,
    epoch: u64,
    touched: Vec<u32>,
}

impl DenseAccumulator {
    /// An empty accumulator; buckets are sized on first [`begin`].
    ///
    /// [`begin`]: DenseAccumulator::begin
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new accumulation round over bucket ids `0..buckets`.
    ///
    /// O(1) amortized: previous round's entries are invalidated by epoch
    /// bump, not by clearing.
    pub fn begin(&mut self, buckets: usize) {
        if self.weight.len() < buckets {
            self.weight.resize(buckets, 0.0);
            self.stamp.resize(buckets, 0);
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Adds `w` to `bucket`. First touch of a bucket this round registers
    /// it in the touched-list.
    #[inline]
    pub fn add(&mut self, bucket: u32, w: f64) {
        let i = bucket as usize;
        debug_assert!(i < self.weight.len(), "bucket {bucket} out of range");
        if self.stamp[i] == self.epoch {
            self.weight[i] += w;
        } else {
            self.stamp[i] = self.epoch;
            self.weight[i] = w;
            self.touched.push(bucket);
        }
    }

    /// Accumulated weight of `bucket` this round (0 if untouched).
    #[inline]
    pub fn get(&self, bucket: u32) -> f64 {
        let i = bucket as usize;
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            self.weight[i]
        } else {
            0.0
        }
    }

    /// Whether `bucket` was touched this round.
    #[inline]
    pub fn contains(&self, bucket: u32) -> bool {
        let i = bucket as usize;
        i < self.stamp.len() && self.stamp[i] == self.epoch
    }

    /// Number of distinct buckets touched this round.
    #[inline]
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Whether no bucket was touched this round.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Sorts the touched-list ascending, establishing the deterministic
    /// candidate order the sweep algorithms require.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// The touched buckets, in insertion order (or ascending after
    /// [`sort_touched`]).
    ///
    /// [`sort_touched`]: DenseAccumulator::sort_touched
    #[inline]
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// `(bucket, weight)` pairs in touched-list order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.touched
            .iter()
            .map(move |&b| (b, self.weight[b as usize]))
    }

    /// Approximate resident bytes (capacity, not length, of each buffer).
    pub fn approx_bytes(&self) -> usize {
        self.weight.capacity() * std::mem::size_of::<f64>()
            + self.stamp.capacity() * std::mem::size_of::<u64>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
    }
}

/// A reusable `u32 → u32` map over dense keys, invalidated in O(1) —
/// the index-building cousin of [`DenseAccumulator`] (used e.g. to map
/// subgraph nodes to local ids during recursive bisection without
/// allocating a hash map per recursion step).
#[derive(Debug, Clone, Default)]
pub struct DenseIndexMap {
    value: Vec<u32>,
    stamp: Vec<u64>,
    epoch: u64,
}

impl DenseIndexMap {
    /// An empty map; keys are sized on first [`begin`].
    ///
    /// [`begin`]: DenseIndexMap::begin
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new mapping round over keys `0..keys`.
    pub fn begin(&mut self, keys: usize) {
        if self.value.len() < keys {
            self.value.resize(keys, 0);
            self.stamp.resize(keys, 0);
        }
        self.epoch += 1;
    }

    /// Maps `key` to `value` for this round.
    #[inline]
    pub fn insert(&mut self, key: u32, value: u32) {
        let i = key as usize;
        debug_assert!(i < self.value.len(), "key {key} out of range");
        self.stamp[i] = self.epoch;
        self.value[i] = value;
    }

    /// The value of `key` this round, if mapped.
    #[inline]
    pub fn get(&self, key: u32) -> Option<u32> {
        let i = key as usize;
        if i < self.stamp.len() && self.stamp[i] == self.epoch {
            Some(self.value[i])
        } else {
            None
        }
    }
}

/// Per-row candidate lists of a sweep, stored in one flat arena.
///
/// Row `i` owns a fixed slot of `width(i)` entries at a prefix-sum offset,
/// plus a live length. A sweep sizes the slot with an upper bound on the
/// row's candidate count: candidates are *distinct* buckets of the row's
/// neighbors, so `min(row length, bucket count)` always suffices. Buckets
/// and weights are kept in parallel arrays, so the hot "has any candidate
/// bucket changed" scan reads bucket ids alone.
///
/// [`CandidateCache::layout`] re-lays the slots for a new set of rows
/// into the retained buffers: only capacity survives, never an entry
/// (every slot starts empty), so a warm cache behaves exactly like a
/// fresh one.
#[derive(Debug, Clone, Default)]
pub struct CandidateCache {
    /// `start[i]..start[i + 1]` is row `i`'s slot (`rows + 1` prefix sums).
    start: Vec<u32>,
    /// Live entries per row, at most the slot width.
    len: Vec<u32>,
    /// Candidate buckets, slot by slot.
    bucket: Vec<u32>,
    /// Weights parallel to `bucket`.
    weight: Vec<f64>,
}

impl CandidateCache {
    /// An empty cache with no rows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lays out `rows` empty slots, row `i` holding up to `width(i)`
    /// entries.
    ///
    /// # Panics
    /// Panics if the total width exceeds the `u32` id space.
    pub fn layout(&mut self, rows: usize, mut width: impl FnMut(usize) -> usize) {
        self.start.clear();
        self.start.reserve(rows + 1);
        self.start.push(0);
        let mut at = 0usize;
        for i in 0..rows {
            at += width(i);
            self.start.push(fit_u32(at));
        }
        self.len.clear();
        self.len.resize(rows, 0);
        // Grow-only: positions past a slot's live length are never read,
        // so stale values from an earlier layout are harmless and the
        // arena is not re-zeroed per layout.
        if self.bucket.len() < at {
            self.bucket.resize(at, 0);
            self.weight.resize(at, 0.0);
        }
    }

    /// Number of rows in the current layout.
    #[inline]
    pub fn rows(&self) -> usize {
        self.len.len()
    }

    /// Row `row`'s cached candidates as parallel `(buckets, weights)`, in
    /// the order they were stored.
    #[inline]
    pub fn get(&self, row: usize) -> (&[u32], &[f64]) {
        let s = self.start[row] as usize;
        let e = s + self.len[row] as usize;
        (&self.bucket[s..e], &self.weight[s..e])
    }

    /// Replaces row `row`'s candidates with `acc`'s entries, in
    /// touched-list order (ascending after
    /// [`DenseAccumulator::sort_touched`]).
    ///
    /// # Panics
    /// Panics if `acc` touched more buckets than the row's slot holds.
    #[inline]
    pub fn store(&mut self, row: usize, acc: &DenseAccumulator) {
        let s = self.start[row] as usize;
        let width = self.start[row + 1] as usize - s;
        store_slot(
            &mut self.bucket[s..s + width],
            &mut self.weight[s..s + width],
            &mut self.len[row],
            acc,
        );
    }

    /// Splits the cache into one mutable window per row range of
    /// `bounds` (`[0, b₁, …, rows]`, as produced by
    /// [`crate::par::entry_balanced_split`]). Window `c` covers rows
    /// `bounds[c]..bounds[c + 1]` and exactly their slots, so the windows
    /// are disjoint and can be filled concurrently.
    ///
    /// # Panics
    /// Panics if `bounds` does not cover the current rows.
    pub fn windows_mut(&mut self, bounds: &[usize]) -> Vec<CandidateWindow<'_>> {
        assert_eq!(
            bounds.last().copied(),
            Some(self.rows()),
            "bounds must cover every row"
        );
        let end = self.start[self.rows()] as usize;
        let mut len: &mut [u32] = &mut self.len;
        let mut bucket: &mut [u32] = &mut self.bucket[..end];
        let mut weight: &mut [f64] = &mut self.weight[..end];
        let mut windows = Vec::with_capacity(bounds.len().saturating_sub(1));
        for pair in bounds.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let entries = (self.start[hi] - self.start[lo]) as usize;
            let (l, l_rest) = std::mem::take(&mut len).split_at_mut(hi - lo);
            let (b, b_rest) = std::mem::take(&mut bucket).split_at_mut(entries);
            let (w, w_rest) = std::mem::take(&mut weight).split_at_mut(entries);
            len = l_rest;
            bucket = b_rest;
            weight = w_rest;
            windows.push(CandidateWindow {
                lo,
                start: &self.start[lo..=hi],
                len: l,
                bucket: b,
                weight: w,
            });
        }
        windows
    }

    /// Approximate resident bytes (capacity, not length, of each buffer).
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.start.capacity() + self.len.capacity() + self.bucket.capacity()) * size_of::<u32>()
            + self.weight.capacity() * size_of::<f64>()
    }
}

/// A disjoint mutable window of a [`CandidateCache`]: the slots of one
/// contiguous row range (see [`CandidateCache::windows_mut`]).
#[derive(Debug)]
pub struct CandidateWindow<'a> {
    lo: usize,
    /// The window's `rows + 1` slot offsets, in whole-cache coordinates.
    start: &'a [u32],
    len: &'a mut [u32],
    bucket: &'a mut [u32],
    weight: &'a mut [f64],
}

impl CandidateWindow<'_> {
    /// The rows this window covers (whole-cache row indices).
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.lo..self.lo + self.len.len()
    }

    /// [`CandidateCache::store`] for a row of this window.
    ///
    /// # Panics
    /// Panics if `row` lies outside the window or `acc` touched more
    /// buckets than the row's slot holds.
    #[inline]
    pub fn store(&mut self, row: usize, acc: &DenseAccumulator) {
        let r = row - self.lo;
        let s = (self.start[r] - self.start[0]) as usize;
        let e = (self.start[r + 1] - self.start[0]) as usize;
        store_slot(
            &mut self.bucket[s..e],
            &mut self.weight[s..e],
            &mut self.len[r],
            acc,
        );
    }
}

/// Copies `acc`'s entries into one slot and records the live length.
#[inline]
fn store_slot(bucket: &mut [u32], weight: &mut [f64], len: &mut u32, acc: &DenseAccumulator) {
    let n = acc.touched.len();
    assert!(
        n <= bucket.len(),
        "candidate slot overflow: {n} > {}",
        bucket.len()
    );
    bucket[..n].copy_from_slice(&acc.touched);
    for (w, &b) in weight[..n].iter_mut().zip(&acc.touched) {
        *w = acc.weight[b as usize];
    }
    *len = fit_u32(n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_resets() {
        let mut acc = DenseAccumulator::new();
        acc.begin(4);
        acc.add(2, 1.5);
        acc.add(0, 1.0);
        acc.add(2, 0.5);
        assert_eq!(acc.len(), 2);
        assert!((acc.get(2) - 2.0).abs() < 1e-12);
        assert!((acc.get(0) - 1.0).abs() < 1e-12);
        assert_eq!(acc.get(1), 0.0);
        assert!(acc.contains(0) && !acc.contains(1));

        acc.begin(4);
        assert!(acc.is_empty(), "epoch bump must invalidate previous round");
        assert_eq!(acc.get(2), 0.0);
    }

    #[test]
    fn touched_order_is_insertion_until_sorted() {
        let mut acc = DenseAccumulator::new();
        acc.begin(8);
        for b in [5u32, 1, 7, 1, 5, 3] {
            acc.add(b, 1.0);
        }
        assert_eq!(acc.touched(), &[5, 1, 7, 3]);
        acc.sort_touched();
        assert_eq!(acc.touched(), &[1, 3, 5, 7]);
        let entries: Vec<(u32, f64)> = acc.entries().collect();
        assert_eq!(entries, vec![(1, 2.0), (3, 1.0), (5, 2.0), (7, 1.0)]);
    }

    #[test]
    fn grows_between_rounds() {
        let mut acc = DenseAccumulator::new();
        acc.begin(2);
        acc.add(1, 1.0);
        acc.begin(10);
        acc.add(9, 2.0);
        assert!((acc.get(9) - 2.0).abs() < 1e-12);
        assert_eq!(acc.len(), 1);
    }

    fn gathered(pairs: &[(u32, f64)]) -> DenseAccumulator {
        let mut acc = DenseAccumulator::new();
        acc.begin(16);
        for &(b, w) in pairs {
            acc.add(b, w);
        }
        acc.sort_touched();
        acc
    }

    #[test]
    fn candidate_slots_hold_stored_entries() {
        let mut cache = CandidateCache::new();
        cache.layout(3, |i| [2, 0, 3][i]);
        assert_eq!(cache.rows(), 3);
        assert!(cache.get(0).0.is_empty() && cache.get(2).0.is_empty());
        cache.store(2, &gathered(&[(7, 1.0), (1, 2.0), (7, 0.5)]));
        cache.store(0, &gathered(&[(3, 4.0)]));
        assert_eq!(cache.get(2), (&[1u32, 7][..], &[2.0, 1.5][..]));
        assert_eq!(cache.get(0), (&[3u32][..], &[4.0][..]));
        // Overwriting a row shrinks or grows it within its slot only.
        cache.store(2, &gathered(&[(5, 1.0), (6, 1.0), (9, 1.0)]));
        assert_eq!(cache.get(2).0, &[5, 6, 9]);
        assert_eq!(cache.get(0).0, &[3]);
        // A new layout empties every slot.
        cache.layout(2, |_| 1);
        assert!(cache.get(0).0.is_empty() && cache.get(1).0.is_empty());
    }

    #[test]
    #[should_panic(expected = "candidate slot overflow")]
    fn candidate_slot_rejects_overflow() {
        let mut cache = CandidateCache::new();
        cache.layout(2, |_| 1);
        cache.store(0, &gathered(&[(1, 1.0), (2, 1.0)]));
    }

    #[test]
    fn candidate_windows_write_their_own_slots() {
        let mut cache = CandidateCache::new();
        cache.layout(4, |i| i + 1);
        {
            let mut windows = cache.windows_mut(&[0, 1, 4]);
            assert_eq!(windows[0].rows(), 0..1);
            assert_eq!(windows[1].rows(), 1..4);
            windows[1].store(3, &gathered(&[(2, 1.0), (0, 3.0), (1, 2.0), (3, 4.0)]));
            windows[0].store(0, &gathered(&[(8, 0.5)]));
            windows[1].store(1, &gathered(&[(4, 1.0)]));
        }
        assert_eq!(cache.get(0), (&[8u32][..], &[0.5][..]));
        assert_eq!(cache.get(1), (&[4u32][..], &[1.0][..]));
        assert!(cache.get(2).0.is_empty());
        assert_eq!(
            cache.get(3),
            (&[0u32, 1, 2, 3][..], &[3.0, 2.0, 1.0, 4.0][..])
        );
    }

    #[test]
    fn candidate_cache_bytes_track_capacity_and_stay_flat() {
        let mut cache = CandidateCache::new();
        cache.layout(100, |i| i % 5);
        let bytes = cache.approx_bytes();
        // 101 offsets + 100 lengths + 200 buckets (u32), 200 weights (f64).
        assert!(bytes >= (101 + 100 + 200) * 4 + 200 * 8);
        for round in 0..4 {
            // Same shape, different row order: the arena must not grow.
            cache.layout(100, |i| (i + round) % 5);
            for row in 0..100 {
                let w = (row + round) % 5;
                let pairs: Vec<(u32, f64)> = (0..w as u32).map(|b| (b, 1.0)).collect();
                cache.store(row, &gathered(&pairs));
            }
            assert_eq!(cache.approx_bytes(), bytes, "round {round}");
        }
    }

    #[test]
    fn index_map_rounds() {
        let mut map = DenseIndexMap::new();
        map.begin(5);
        map.insert(3, 0);
        map.insert(1, 1);
        assert_eq!(map.get(3), Some(0));
        assert_eq!(map.get(0), None);
        map.begin(5);
        assert_eq!(map.get(3), None, "new round forgets old entries");
    }
}
