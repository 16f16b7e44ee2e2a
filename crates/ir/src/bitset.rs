//! A small fixed-capacity bit set used for transitive-closure computations.
//!
//! Blocks routinely exceed 64 instructions in the worst-case experiments, so
//! a single machine word is not enough; an external bitset crate is not on
//! the approved dependency list, and this ~100-line implementation covers
//! everything the analyses need (set, test, union-in-place, count, iterate).

/// A fixed-capacity set of small integers backed by `u64` words.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Create an empty set able to hold values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity the set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Insert `bit`. Returns true if it was newly inserted.
    pub fn insert(&mut self, bit: usize) -> bool {
        assert!(
            bit < self.capacity,
            "bit {bit} out of range {}",
            self.capacity
        );
        let word = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Remove `bit`. Returns true if it was present.
    pub fn remove(&mut self, bit: usize) -> bool {
        assert!(bit < self.capacity);
        let word = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Test membership.
    pub fn contains(&self, bit: usize) -> bool {
        bit < self.capacity && self.words[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// In-place union with another set of the same capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    /// True when `self` and `other` share no elements.
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True when every element of `self` is in `other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Number of elements in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Remove all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: self.words.iter().enumerate(),
            base: 0,
            word: 0,
        }
    }
}

/// Ascending iterator over the members of a [`BitSet`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    /// Words not yet loaded, with their indices.
    words: std::iter::Enumerate<std::slice::Iter<'a, u64>>,
    /// Value of bit 0 of `word`.
    base: usize,
    /// Members of the current word not yet yielded.
    word: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (wi, &word) = self.words.next()?;
            self.base = wi * 64;
            self.word = word;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(0), "second insert reports already-present");
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_and_subset() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        a.insert(3);
        a.insert(99);
        b.insert(99);
        assert!(b.is_subset(&a));
        assert!(!a.is_subset(&b));
        b.union_with(&a);
        assert!(a.is_subset(&b));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn disjoint() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        b.insert(65);
        assert!(a.is_disjoint(&b));
        b.insert(1);
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn iter_ascending_across_words() {
        let mut s = BitSet::new(200);
        for bit in [5, 63, 64, 128, 199] {
            s.insert(bit);
        }
        let got: Vec<_> = s.iter().collect();
        assert_eq!(got, vec![5, 63, 64, 128, 199]);
    }

    #[test]
    fn clear_empties() {
        let mut s = BitSet::new(10);
        s.insert(7);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_insert_panics() {
        let mut s = BitSet::new(8);
        s.insert(8);
    }
}
