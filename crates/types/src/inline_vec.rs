//! A small-vector for `Copy` elements: inline storage for the common
//! case, transparent heap spill beyond it.
//!
//! The ingestion hot path must not allocate per processed transaction
//! (see DESIGN.md §7). The online analyzer's and the router's
//! per-transaction scratch (deduplicated extents, ownership flags, item
//! slots) holds at most 8 `Copy` elements on monitored transactions,
//! which are capped at 8 requests, so an inline fixed array covers it
//! without touching the allocator, while the heap spill keeps
//! correctness for hand-built transactions beyond the cap.
//!
//! # Examples
//!
//! ```
//! use rtdac_types::InlineVec;
//!
//! let mut v: InlineVec<u64, 4> = InlineVec::new();
//! for i in 0..6 {
//!     v.push(i); // spills to the heap at the fifth push
//! }
//! assert_eq!(v.len(), 6);
//! assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4, 5]);
//! ```

use std::fmt;
use std::mem::MaybeUninit;

/// A growable vector of `Copy` elements whose first `N` live inline.
pub struct InlineVec<T, const N: usize> {
    /// Number of initialized inline slots; meaningless once spilled.
    len: usize,
    inline: [MaybeUninit<T>; N],
    /// Heap storage; `Some` once the vector has outgrown `N`. All
    /// elements (including the former inline ones) live here after the
    /// spill.
    spill: Option<Vec<T>>,
}

impl<T: Copy, const N: usize> InlineVec<T, N> {
    /// Creates an empty vector. Does not allocate.
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            inline: [MaybeUninit::uninit(); N],
            spill: None,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.spill {
            Some(v) => v.len(),
            None => self.len,
        }
    }

    /// Whether the vector is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the elements have spilled to the heap.
    #[inline]
    pub fn spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// The elements as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.spill {
            Some(v) => v.as_slice(),
            // SAFETY: the first `len` inline slots are initialized.
            None => unsafe {
                std::slice::from_raw_parts(self.inline.as_ptr().cast::<T>(), self.len)
            },
        }
    }

    /// The elements as a mutable slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.spill {
            Some(v) => v.as_mut_slice(),
            // SAFETY: the first `len` inline slots are initialized.
            None => unsafe {
                std::slice::from_raw_parts_mut(self.inline.as_mut_ptr().cast::<T>(), self.len)
            },
        }
    }

    /// Appends an element, spilling to the heap on overflow of the
    /// inline capacity.
    #[inline]
    pub fn push(&mut self, value: T) {
        if let Some(v) = &mut self.spill {
            v.push(value);
            return;
        }
        if self.len < N {
            self.inline[self.len].write(value);
            self.len += 1;
        } else {
            let mut v = Vec::with_capacity(N * 2);
            v.extend_from_slice(self.as_slice());
            v.push(value);
            self.spill = Some(v);
        }
    }

    /// Inserts `value` at `index`, shifting later elements right.
    ///
    /// # Panics
    ///
    /// Panics if `index > len`.
    pub fn insert(&mut self, index: usize, value: T) {
        assert!(index <= self.len(), "insert index out of bounds");
        if let Some(v) = &mut self.spill {
            v.insert(index, value);
            return;
        }
        if self.len == N {
            let mut v = Vec::with_capacity(N * 2);
            v.extend_from_slice(self.as_slice());
            v.insert(index, value);
            self.spill = Some(v);
            return;
        }
        // SAFETY: slots `index..len` are initialized; shifting them one
        // right stays within the (len < N) inline capacity.
        unsafe {
            let base = self.inline.as_mut_ptr().cast::<T>();
            std::ptr::copy(base.add(index), base.add(index + 1), self.len - index);
        }
        self.inline[index].write(value);
        self.len += 1;
    }

    /// Iterator over the elements.
    #[inline]
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// Empties the vector. Keeps the inline buffer and, if spilled, the
    /// heap capacity, so a cleared vector can be refilled without
    /// allocating.
    #[inline]
    pub fn clear(&mut self) {
        if let Some(v) = &mut self.spill {
            v.clear();
        }
        self.len = 0;
        // Once spilled, stay spilled: the capacity is already paid for
        // and switching back would copy on every boundary crossing.
    }
}

impl<T: Copy, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + PartialEq, const N: usize> PartialEq for InlineVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Eq, const N: usize> Eq for InlineVec<T, N> {}

impl<'a, T: Copy, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy, const N: usize> FromIterator<T> for InlineVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = InlineVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stays_inline_up_to_capacity() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
    }

    #[test]
    fn spills_and_preserves_contents() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        for i in 0..10 {
            v.push(i);
        }
        assert!(v.spilled());
        assert_eq!(v.len(), 10);
        assert_eq!(v.as_slice(), (0..10).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn insert_shifts_inline_elements() {
        let mut v: InlineVec<u32, 4> = InlineVec::new();
        v.push(1);
        v.push(3);
        v.insert(1, 2);
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        v.insert(0, 0);
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        // Full inline: the next insert spills.
        v.insert(4, 9);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 9]);
    }

    #[test]
    fn clear_retains_spill_capacity() {
        let mut v: InlineVec<u32, 2> = InlineVec::new();
        for i in 0..8 {
            v.push(i);
        }
        v.clear();
        assert!(v.is_empty());
        assert!(v.spilled());
        v.push(42);
        assert_eq!(v.as_slice(), &[42]);
    }

    #[test]
    fn eq_compares_contents() {
        let v: InlineVec<u32, 3> = [1, 2].into_iter().collect();
        let w: InlineVec<u32, 3> = [1, 2].into_iter().collect();
        assert_eq!(v, w);
        let empty: InlineVec<u32, 3> = InlineVec::new();
        assert_ne!(v, empty);
    }

    #[test]
    fn from_iterator_collects() {
        let v: InlineVec<u32, 4> = (0..6).collect();
        assert_eq!(v.len(), 6);
        assert!(v.spilled());
    }
}
