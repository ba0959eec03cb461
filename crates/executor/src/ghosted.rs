//! The ghosted local buffer: a rank's owned values plus the off-processor
//! values the gather fetches, in one contiguous allocation.
//!
//! Fig. 4 of the paper draws each processor's buffer as "local data"
//! followed by "off processor data"; the inspector's translated adjacency
//! indexes directly into this combined layout (owned values at
//! `0..local_len`, ghost slot `s` at `local_len + s`). The buffer is generic
//! over the application's [`Element`] type — `GhostedArray<f64>` is the
//! paper's array, `GhostedArray<[f64; K]>` a multi-field state vector.

use stance_sim::Element;

/// A rank's owned block plus ghost region.
#[derive(Debug, Clone, PartialEq)]
pub struct GhostedArray<E: Element = f64> {
    data: Vec<E>,
    local_len: usize,
}

impl<E: Element> GhostedArray<E> {
    /// Creates a buffer with `local_len` owned slots and `num_ghosts` ghost
    /// slots, all [`Element::zero`].
    pub fn zeros(local_len: usize, num_ghosts: usize) -> Self {
        GhostedArray {
            data: vec![E::zero(); local_len + num_ghosts],
            local_len,
        }
    }

    /// Creates a buffer from owned values, appending `num_ghosts` zeroed
    /// ghost slots.
    pub fn from_local(local: Vec<E>, num_ghosts: usize) -> Self {
        let local_len = local.len();
        let mut data = local;
        data.resize(local_len + num_ghosts, E::zero());
        GhostedArray { data, local_len }
    }

    /// Number of owned elements.
    #[inline]
    pub fn local_len(&self) -> usize {
        self.local_len
    }

    /// Number of ghost slots.
    #[inline]
    pub fn num_ghosts(&self) -> usize {
        self.data.len() - self.local_len
    }

    /// The owned values.
    #[inline]
    pub fn local(&self) -> &[E] {
        &self.data[..self.local_len]
    }

    /// The ghost region.
    #[inline]
    pub fn ghosts(&self) -> &[E] {
        &self.data[self.local_len..]
    }

    /// Mutable ghost region.
    #[inline]
    pub fn ghosts_mut(&mut self) -> &mut [E] {
        let start = self.local_len;
        &mut self.data[start..]
    }

    /// The whole combined buffer (what translated adjacencies index into).
    #[inline]
    pub fn combined(&self) -> &[E] {
        &self.data
    }

    /// Replaces the owned values (length must match).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn set_local(&mut self, values: &[E]) {
        // Fig. 4 layout: the owned prefix is exactly `local_len` long.
        assert_eq!(values.len(), self.local_len, "local length mismatch");
        self.data[..self.local_len].copy_from_slice(values);
    }

    /// Takes `block` as the new owned values for a new distribution,
    /// **without copying them**: `block`'s storage becomes the buffer, its
    /// `num_ghosts` ghost slots appended in place and zeroed, and the
    /// retired storage is handed back in `block` — so a remap that fills
    /// recycled blocks moves each field's values once, and allocates only
    /// while a block's capacity is still short of its combined size.
    pub fn swap_in(&mut self, block: &mut Vec<E>, num_ghosts: usize) {
        let local_len = block.len();
        block.resize(local_len + num_ghosts, E::zero());
        std::mem::swap(&mut self.data, block);
        self.local_len = local_len;
    }

    /// Swaps the whole combined buffer with `buf` — the double-buffered
    /// commit: a loop that sweeps into a combined-size scratch publishes
    /// the new owned values by exchanging `Vec` pointers instead of
    /// copying element by element ([`GhostedArray::set_local`]'s memcpy).
    /// The Fig. 4 layout is preserved — owned values stay at
    /// `0..local_len`, ghosts after them — but the ghost region now holds
    /// whatever `buf` carried there (typically last iteration's ghosts),
    /// so it is **stale until the next gather**, which overwrites every
    /// ghost slot.
    ///
    /// # Panics
    /// Panics if `buf`'s length differs from the combined buffer's.
    pub fn swap_data(&mut self, buf: &mut Vec<E>) {
        // The swapped-in buffer must keep the owned/ghost split in place.
        assert_eq!(buf.len(), self.data.len(), "combined length mismatch");
        std::mem::swap(&mut self.data, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout() {
        let mut a: GhostedArray = GhostedArray::zeros(3, 2);
        assert_eq!(a.local_len(), 3);
        assert_eq!(a.num_ghosts(), 2);
        assert_eq!(a.combined().len(), 5);
        a.set_local(&[0.0, 7.0, 0.0]);
        a.ghosts_mut()[0] = 9.0;
        assert_eq!(a.combined(), &[0.0, 7.0, 0.0, 9.0, 0.0]);
    }

    #[test]
    fn from_local_appends_ghosts() {
        let a = GhostedArray::from_local(vec![1.0, 2.0], 3);
        assert_eq!(a.local(), &[1.0, 2.0]);
        assert_eq!(a.ghosts(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn set_local_replaces_the_owned_values() {
        let mut a: GhostedArray = GhostedArray::zeros(2, 1);
        a.set_local(&[4.0, 5.0]);
        assert_eq!(a.local(), &[4.0, 5.0]);
        assert_eq!(a.ghosts(), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn set_local_checks_length() {
        let mut a: GhostedArray = GhostedArray::zeros(2, 0);
        a.set_local(&[1.0]);
    }

    #[test]
    fn empty_buffers() {
        let a: GhostedArray = GhostedArray::zeros(0, 0);
        assert!(a.local().is_empty());
        assert!(a.ghosts().is_empty());
    }

    #[test]
    fn swap_in_takes_the_block_without_copying() {
        let mut a: GhostedArray = GhostedArray::from_local(vec![1.0, 2.0, 3.0, 4.0], 2);
        let retired = a.combined().as_ptr();
        let mut block = Vec::with_capacity(5);
        block.extend_from_slice(&[7.0, 8.0]);
        let taken = block.as_ptr();
        // The block's storage becomes the buffer, ghosts zeroed in place.
        a.swap_in(&mut block, 3);
        assert_eq!(a.local(), &[7.0, 8.0]);
        assert_eq!(a.ghosts(), &[0.0, 0.0, 0.0]);
        assert_eq!(a.combined().as_ptr(), taken, "the block must not be copied");
        assert_eq!(block.as_ptr(), retired, "the old storage comes back");
        // A block short of capacity for its ghosts grows once.
        let mut block = vec![1.0; 64];
        a.swap_in(&mut block, 8);
        assert_eq!((a.local_len(), a.num_ghosts()), (64, 8));
    }

    #[test]
    fn swap_data_exchanges_buffers_without_copying() {
        let mut a: GhostedArray = GhostedArray::from_local(vec![1.0, 2.0], 1);
        let mut buf = vec![7.0, 8.0, 9.0];
        let buf_ptr = buf.as_ptr();
        a.swap_data(&mut buf);
        assert_eq!(a.local(), &[7.0, 8.0]);
        assert_eq!(a.ghosts(), &[9.0]);
        assert_eq!(buf, vec![1.0, 2.0, 0.0]);
        // Pointer swap, not a copy.
        assert_eq!(a.combined().as_ptr(), buf_ptr);
    }

    #[test]
    #[should_panic(expected = "combined length mismatch")]
    fn swap_data_checks_length() {
        let mut a: GhostedArray = GhostedArray::zeros(2, 1);
        a.swap_data(&mut vec![0.0; 2]);
    }

    #[test]
    fn multi_field_elements() {
        let mut a: GhostedArray<[f64; 2]> = GhostedArray::zeros(2, 1);
        a.set_local(&[[1.0, 2.0], [3.0, 4.0]]);
        assert_eq!(a.combined(), &[[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]]);
        a.ghosts_mut()[0] = [5.0, 6.0];
        assert_eq!(a.ghosts(), &[[5.0, 6.0]]);
    }
}
