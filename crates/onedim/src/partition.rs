//! Block partitions: one contiguous interval of the 1-D list per processor.
//!
//! §3.1: "it is inexpensive to partition the one-dimensional list among the
//! processors according to their computational capability, since partitioning
//! is equivalent to assigning contiguous blocks of vertices to each
//! partition. The size of each block is proportional to the weight of the
//! partition."
//!
//! Block sizes are apportioned with the largest-remainder method, which keeps
//! every block within one element of its exact proportional share and assigns
//! every element exactly once.

use crate::arrangement::Arrangement;
use crate::interval::Interval;

/// A partition of `[0, n)` into `p` contiguous blocks, one per processor,
/// laid out along the list in [`Arrangement`] order.
///
/// This is exactly the information the paper's replicated translation table
/// stores (Fig. 3): first/last element per processor, `O(p)` memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockPartition {
    /// Total number of elements.
    n: usize,
    /// Block boundaries in list order: `bounds[k]..bounds[k+1]` is block `k`.
    bounds: Vec<usize>,
    /// `order.proc_at(k)` owns block `k`.
    order: Arrangement,
}

impl BlockPartition {
    /// Partitions `n` elements among `weights.len()` processors with block
    /// sizes proportional to `weights`, blocks laid out in `arrangement`
    /// order. `weights[i]` is processor `i`'s capability (need not sum to 1).
    ///
    /// # Panics
    /// Panics if `weights.len() != arrangement.len()`, if any weight is
    /// negative or non-finite, or if all weights are zero.
    pub fn from_weights(n: usize, weights: &[f64], arrangement: Arrangement) -> Self {
        let p = arrangement.len();
        assert_eq!(
            weights.len(),
            p,
            "got {} weights for {p} processors",
            weights.len()
        );
        let total: f64 = weights.iter().sum();
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0) && total > 0.0,
            "weights must be non-negative, finite and not all zero"
        );

        // Largest-remainder apportionment over blocks in arrangement order.
        let shares: Vec<f64> = (0..p)
            .map(|k| n as f64 * weights[arrangement.proc_at(k)] / total)
            .collect();
        let mut sizes: Vec<usize> = shares.iter().map(|s| s.floor() as usize).collect();
        let assigned: usize = sizes.iter().sum();
        let mut leftover = n - assigned;
        // Give the leftover elements to the blocks with the largest
        // fractional parts; ties broken by block position for determinism.
        let mut frac: Vec<(usize, f64)> = shares
            .iter()
            .enumerate()
            .map(|(k, s)| (k, s - s.floor()))
            .collect();
        frac.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("fractional parts are finite")
                .then(a.0.cmp(&b.0))
        });
        for (k, _) in frac {
            if leftover == 0 {
                break;
            }
            sizes[k] += 1;
            leftover -= 1;
        }
        debug_assert_eq!(sizes.iter().sum::<usize>(), n);

        let mut bounds = Vec::with_capacity(p + 1);
        let mut acc = 0;
        bounds.push(0);
        for s in &sizes {
            acc += s;
            bounds.push(acc);
        }
        BlockPartition {
            n,
            bounds,
            order: arrangement,
        }
    }

    /// Equal-weight partition in identity arrangement.
    pub fn uniform(n: usize, p: usize) -> Self {
        Self::from_weights(n, &vec![1.0; p], Arrangement::identity(p))
    }

    /// Builds a partition from explicit block sizes in identity arrangement.
    ///
    /// # Panics
    /// Panics if the sizes are empty.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        Self::from_sizes_with_arrangement(sizes, Arrangement::identity(sizes.len()))
    }

    /// Builds a partition from explicit block sizes in *block (left-to-right)
    /// order* under the given arrangement: block `k` has `sizes[k]` elements
    /// and belongs to processor `arrangement.proc_at(k)`.
    ///
    /// # Panics
    /// Panics if the sizes are empty or `sizes.len() != arrangement.len()`.
    pub fn from_sizes_with_arrangement(sizes: &[usize], arrangement: Arrangement) -> Self {
        assert!(!sizes.is_empty(), "need at least one block");
        assert_eq!(
            sizes.len(),
            arrangement.len(),
            "got {} sizes for {} processors",
            sizes.len(),
            arrangement.len()
        );
        let mut bounds = Vec::with_capacity(sizes.len() + 1);
        let mut acc = 0;
        bounds.push(0);
        for &s in sizes {
            acc += s;
            bounds.push(acc);
        }
        BlockPartition {
            n: acc,
            bounds,
            order: arrangement,
        }
    }

    /// Block sizes in left-to-right block order (use together with
    /// [`Self::arrangement`] to reconstruct the partition, e.g. after
    /// broadcasting a remap decision).
    pub fn block_sizes(&self) -> Vec<usize> {
        self.bounds.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Total number of elements.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of processors.
    #[inline]
    pub fn num_procs(&self) -> usize {
        self.order.len()
    }

    /// The arrangement the blocks are laid out in.
    #[inline]
    pub fn arrangement(&self) -> &Arrangement {
        &self.order
    }

    /// The interval owned by processor `proc`.
    pub fn interval_of(&self, proc: usize) -> Interval {
        let k = self.order.slot_of(proc);
        Interval::new(self.bounds[k], self.bounds[k + 1])
    }

    /// All intervals indexed by processor id.
    pub fn intervals(&self) -> Vec<Interval> {
        (0..self.num_procs()).map(|q| self.interval_of(q)).collect()
    }

    /// The processor owning global index `g` (binary search over the `O(p)`
    /// bounds, as the replicated translation table does).
    ///
    /// # Panics
    /// Panics if `g >= n`.
    pub fn owner_of(&self, g: usize) -> usize {
        assert!(g < self.n, "index {g} out of range (n = {})", self.n);
        // partition_point gives the first bound > g; block = that - 1.
        let k = self.bounds.partition_point(|&b| b <= g) - 1;
        self.order.proc_at(k)
    }

    /// Translates a global index to `(owner, local index)` — the paper's
    /// dereference operation: "The local address of a particular element is
    /// computed by subtracting it from the first element that belongs to its
    /// home processor."
    pub fn locate(&self, g: usize) -> (usize, usize) {
        assert!(g < self.n, "index {g} out of range (n = {})", self.n);
        let k = self.bounds.partition_point(|&b| b <= g) - 1;
        (self.order.proc_at(k), g - self.bounds[k])
    }

    /// Linear-scan variant of [`Self::locate`], exactly as described in the
    /// paper ("the list is searched until the processor holding the element
    /// is found"). Used to measure the cost difference; results are
    /// identical.
    pub fn locate_linear(&self, g: usize) -> (usize, usize) {
        assert!(g < self.n, "index {g} out of range (n = {})", self.n);
        for k in 0..self.num_procs() {
            if g < self.bounds[k + 1] {
                return (self.order.proc_at(k), g - self.bounds[k]);
            }
        }
        unreachable!("bounds cover [0, n)")
    }

    /// Block sizes indexed by processor id.
    pub fn sizes(&self) -> Vec<usize> {
        (0..self.num_procs())
            .map(|q| self.interval_of(q).len())
            .collect()
    }

    /// Total overlap (elements that stay on their current processor) with a
    /// second partition of the same list — the quantity MCR maximizes.
    pub fn overlap(&self, other: &BlockPartition) -> usize {
        assert_eq!(self.n, other.n, "partitions cover different lists");
        assert_eq!(
            self.num_procs(),
            other.num_procs(),
            "partitions have different processor counts"
        );
        (0..self.num_procs())
            .map(|q| self.interval_of(q).overlap(&other.interval_of(q)))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig5_old_partition() {
        // 100 elements, capabilities (.27, .18, .34, .07, .14), identity.
        let part = BlockPartition::from_weights(
            100,
            &[0.27, 0.18, 0.34, 0.07, 0.14],
            Arrangement::identity(5),
        );
        assert_eq!(part.sizes(), vec![27, 18, 34, 7, 14]);
        assert_eq!(part.interval_of(0), Interval::new(0, 27));
        assert_eq!(part.interval_of(2), Interval::new(45, 79));
        assert_eq!(part.interval_of(4), Interval::new(86, 100));
    }

    #[test]
    fn paper_fig5_new_partition_identity() {
        let part = BlockPartition::from_weights(
            100,
            &[0.10, 0.13, 0.29, 0.24, 0.24],
            Arrangement::identity(5),
        );
        assert_eq!(part.sizes(), vec![10, 13, 29, 24, 24]);
    }

    #[test]
    fn paper_fig5_rearranged_partition() {
        // Arrangement (P0, P3, P1, P2, P4) with the new capabilities.
        let part = BlockPartition::from_weights(
            100,
            &[0.10, 0.13, 0.29, 0.24, 0.24],
            Arrangement::new(vec![0, 3, 1, 2, 4]),
        );
        // Blocks left-to-right: P0 10, P3 24, P1 13, P2 29, P4 24.
        assert_eq!(part.interval_of(0), Interval::new(0, 10));
        assert_eq!(part.interval_of(3), Interval::new(10, 34));
        assert_eq!(part.interval_of(1), Interval::new(34, 47));
        assert_eq!(part.interval_of(2), Interval::new(47, 76));
        assert_eq!(part.interval_of(4), Interval::new(76, 100));
    }

    #[test]
    fn fig5_overlap_shape() {
        // The paper reports 29 stay-in-place elements for the identity
        // arrangement and 65 for (P0,P3,P1,P2,P4); with exact
        // largest-remainder blocks the same comparison gives 31 vs 64 —
        // the same 2× improvement the figure illustrates.
        let old = BlockPartition::from_weights(
            100,
            &[0.27, 0.18, 0.34, 0.07, 0.14],
            Arrangement::identity(5),
        );
        let new_same = BlockPartition::from_weights(
            100,
            &[0.10, 0.13, 0.29, 0.24, 0.24],
            Arrangement::identity(5),
        );
        let new_rearranged = BlockPartition::from_weights(
            100,
            &[0.10, 0.13, 0.29, 0.24, 0.24],
            Arrangement::new(vec![0, 3, 1, 2, 4]),
        );
        assert_eq!(old.overlap(&new_same), 31);
        assert_eq!(old.overlap(&new_rearranged), 64);
    }

    #[test]
    fn largest_remainder_exactness() {
        // Weights that don't divide n evenly.
        let part = BlockPartition::from_weights(10, &[1.0, 1.0, 1.0], Arrangement::identity(3));
        let sizes = part.sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn zero_weight_gets_empty_block() {
        let part = BlockPartition::from_weights(10, &[1.0, 0.0], Arrangement::identity(2));
        assert_eq!(part.sizes(), vec![10, 0]);
        assert!(part.interval_of(1).is_empty());
    }

    #[test]
    fn owner_and_locate() {
        let part = BlockPartition::from_sizes(&[3, 0, 4]);
        assert_eq!(part.owner_of(0), 0);
        assert_eq!(part.owner_of(2), 0);
        assert_eq!(part.owner_of(3), 2);
        assert_eq!(part.owner_of(6), 2);
        assert_eq!(part.locate(5), (2, 2));
        assert_eq!(part.locate(0), (0, 0));
    }

    #[test]
    fn locate_linear_matches_binary() {
        let part = BlockPartition::from_weights(
            97,
            &[0.2, 0.1, 0.4, 0.3],
            Arrangement::new(vec![2, 0, 3, 1]),
        );
        for g in 0..97 {
            assert_eq!(part.locate(g), part.locate_linear(g), "index {g}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn locate_out_of_range() {
        let part = BlockPartition::uniform(10, 2);
        let _ = part.locate(10);
    }

    #[test]
    fn uniform_partition() {
        let part = BlockPartition::uniform(100, 4);
        assert_eq!(part.sizes(), vec![25, 25, 25, 25]);
        assert_eq!(part.overlap(&part), 100);
    }

    #[test]
    fn arrangement_respected_in_owner() {
        let part = BlockPartition::from_weights(8, &[1.0, 1.0], Arrangement::new(vec![1, 0]));
        // P1 gets the left block.
        assert_eq!(part.owner_of(0), 1);
        assert_eq!(part.owner_of(7), 0);
        assert_eq!(part.interval_of(1), Interval::new(0, 4));
    }

    #[test]
    #[should_panic(expected = "weights must be non-negative")]
    fn all_zero_weights_rejected() {
        let _ = BlockPartition::from_weights(10, &[0.0, 0.0], Arrangement::identity(2));
    }

    #[test]
    fn n_zero_is_fine() {
        let part = BlockPartition::from_weights(0, &[1.0, 2.0], Arrangement::identity(2));
        assert_eq!(part.sizes(), vec![0, 0]);
    }
}
