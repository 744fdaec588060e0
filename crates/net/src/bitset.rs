//! A fixed-capacity dense bitset backed by `u64` words.
//!
//! The simulator manipulates *reach sets* (which nodes a transmission reaches)
//! and *knowledge sets* (which nodes hold the message) every round, for every
//! sender. A dense bitset keeps those operations allocation-free and
//! word-parallel without pulling in an external dependency.
//!
//! # Examples
//!
//! ```
//! use dualgraph_net::FixedBitSet;
//!
//! let mut a = FixedBitSet::new(130);
//! a.insert(0);
//! a.insert(129);
//! assert!(a.contains(0) && a.contains(129) && !a.contains(64));
//! assert_eq!(a.count(), 2);
//! ```

/// The word-level OR kernel shared by every dense bitset pass: ORs `src`
/// into `dst` word by word. This is the one primitive behind
/// [`FixedBitSet::union_with`], the sharded engine's dense-flooding
/// known-set pass, and `PayloadSet::or_words` in the simulator — a plain
/// `u64` loop the compiler auto-vectorizes, with no per-bit or per-edge
/// bookkeeping.
///
/// # Panics
///
/// Panics if `src` is longer than `dst` (a shorter `src` ORs into the
/// prefix, which is what payload-set-into-word-slab callers need).
#[inline]
pub fn or_words(dst: &mut [u64], src: &[u64]) {
    assert!(
        src.len() <= dst.len(),
        "or_words: src has {} words but dst only {}",
        src.len(),
        dst.len()
    );
    for (a, &b) in dst.iter_mut().zip(src) {
        *a |= b;
    }
}

/// A fixed-capacity set of `usize` indices in `0..len`, stored densely.
///
/// All operations panic if an index is out of bounds; capacity is fixed at
/// construction time (the simulator always knows `n` up front).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct FixedBitSet {
    words: Vec<u64>,
    len: usize,
}

impl FixedBitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dualgraph_net::FixedBitSet;
    /// let s = FixedBitSet::new(10);
    /// assert!(s.is_empty());
    /// assert_eq!(s.capacity(), 10);
    /// ```
    pub fn new(len: usize) -> Self {
        FixedBitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Creates a set containing every index in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = Self::new(len);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Creates a set from an iterator of indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= len`.
    pub fn from_indices<I: IntoIterator<Item = usize>>(len: usize, indices: I) -> Self {
        let mut s = Self::new(len);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Number of indices this set can hold (`0..capacity()`).
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Clears excess bits beyond `len` in the last word.
    fn trim(&mut self) {
        let rem = self.len % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    #[inline]
    fn check(&self, index: usize) {
        assert!(
            index < self.len,
            "bit index {index} out of bounds for FixedBitSet of capacity {}",
            self.len
        );
    }

    /// Inserts `index`. Returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    #[inline]
    pub fn insert(&mut self, index: usize) -> bool {
        self.check(index);
        let (w, b) = (index / 64, index % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `index`. Returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    #[inline]
    pub fn remove(&mut self, index: usize) -> bool {
        self.check(index);
        let (w, b) = (index / 64, index % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Tests membership of `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= capacity()`.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.check(index);
        self.words[index / 64] & (1 << (index % 64)) != 0
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when the set has no elements.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union: `self ∪= other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "capacity mismatch in union_with");
        or_words(&mut self.words, &other.words);
    }

    /// The backing `u64` words, bit `i` of the set at word `i / 64`, bit
    /// `i % 64`. Bits at positions `>= capacity()` in the last word are
    /// always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mutable access to the backing words — the escape hatch the sharded
    /// engine uses to split one `informed` set into disjoint per-shard
    /// word ranges (shard boundaries are multiples of 64, so no word is
    /// shared between shards).
    ///
    /// Callers must not set bits at positions `>= capacity()`: the trim
    /// invariant (excess bits of the last word stay zero) is the caller's
    /// responsibility through this view.
    #[inline]
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// In-place intersection: `self ∩= other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "capacity mismatch in intersect_with");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference: `self ∖= other`.
    ///
    /// # Panics
    ///
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &FixedBitSet) {
        assert_eq!(self.len, other.len, "capacity mismatch in difference_with");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// `true` if the sets share no element.
    pub fn is_disjoint(&self, other: &FixedBitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// `true` if every element of `self` is in `other`.
    pub fn is_subset(&self, other: &FixedBitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates set indices in increasing order.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dualgraph_net::FixedBitSet;
    /// let s = FixedBitSet::from_indices(100, [3, 70, 5]);
    /// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 5, 70]);
    /// ```
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// The smallest element, if any.
    pub fn min(&self) -> Option<usize> {
        self.iter().next()
    }
}

impl std::fmt::Debug for FixedBitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for FixedBitSet {
    /// Collects indices into a set sized to fit the largest one.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let indices: Vec<usize> = iter.into_iter().collect();
        let len = indices.iter().max().map_or(0, |&m| m + 1);
        Self::from_indices(len, indices)
    }
}

impl Extend<usize> for FixedBitSet {
    fn extend<I: IntoIterator<Item = usize>>(&mut self, iter: I) {
        for i in iter {
            self.insert(i);
        }
    }
}

/// Iterator over set indices; see [`FixedBitSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a FixedBitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let s = FixedBitSet::new(100);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.capacity(), 100);
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = FixedBitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports already present");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn full_has_exactly_len_bits() {
        for len in [1, 63, 64, 65, 127, 128, 129] {
            let s = FixedBitSet::full(len);
            assert_eq!(s.count(), len, "len={len}");
            assert_eq!(s.iter().count(), len);
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn contains_out_of_bounds_panics() {
        let s = FixedBitSet::new(10);
        s.contains(10);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn insert_out_of_bounds_panics() {
        let mut s = FixedBitSet::new(0);
        s.insert(0);
    }

    #[test]
    fn set_ops() {
        let a = FixedBitSet::from_indices(100, [1, 2, 3, 70]);
        let b = FixedBitSet::from_indices(100, [2, 3, 4, 99]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 70, 99]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1, 70]);
    }

    #[test]
    fn subset_disjoint() {
        let a = FixedBitSet::from_indices(50, [1, 2]);
        let b = FixedBitSet::from_indices(50, [1, 2, 3]);
        let c = FixedBitSet::from_indices(50, [40, 41]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(a.is_disjoint(&c));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn iter_order_and_min() {
        let s = FixedBitSet::from_indices(200, [199, 0, 63, 64, 65]);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 65, 199]);
        assert_eq!(s.min(), Some(0));
        assert_eq!(FixedBitSet::new(8).min(), None);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: FixedBitSet = [5usize, 9, 2].into_iter().collect();
        assert_eq!(s.capacity(), 10);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn extend_inserts() {
        let mut s = FixedBitSet::new(10);
        s.extend([1, 3, 5]);
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = FixedBitSet::new(4);
        assert_eq!(format!("{s:?}"), "{}");
        let s = FixedBitSet::from_indices(4, [1, 2]);
        assert_eq!(format!("{s:?}"), "{1, 2}");
    }

    #[test]
    fn clear_empties() {
        let mut s = FixedBitSet::full(77);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn or_words_kernel_matches_bitwise_union() {
        let a = FixedBitSet::from_indices(200, [0, 63, 64, 130, 199]);
        let b = FixedBitSet::from_indices(200, [1, 63, 129, 198]);
        let mut via_union = a.clone();
        via_union.union_with(&b);
        let mut via_kernel = a.clone();
        or_words(via_kernel.words_mut(), b.words());
        assert_eq!(via_union, via_kernel);
    }

    #[test]
    fn or_words_shorter_src_ors_into_prefix() {
        let mut dst = [0u64, 0, u64::MAX];
        or_words(&mut dst, &[0b101, 0b11]);
        assert_eq!(dst, [0b101, 0b11, u64::MAX]);
    }

    #[test]
    #[should_panic(expected = "or_words")]
    fn or_words_rejects_longer_src() {
        let mut dst = [0u64];
        or_words(&mut dst, &[1, 2]);
    }

    #[test]
    fn words_view_matches_membership() {
        let s = FixedBitSet::from_indices(130, [0, 64, 129]);
        let w = s.words();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], 1);
        assert_eq!(w[1], 1);
        assert_eq!(w[2], 2);
    }
}
