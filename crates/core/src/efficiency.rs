//! Efficiency metrics for nonuniform environments (§4 of the paper).
//!
//! Classic speedup/efficiency assume identical processors. The paper defines
//! instead, for processors that would take `T(p_i)` to run the whole task
//! sequentially:
//!
//! ```text
//!                      1 / T(p₁, …, pₙ)
//! E(p₁, …, pₙ) =  ───────────────────────
//!                     Σᵢ  1 / T(pᵢ)
//! ```
//!
//! (collectively the machines complete `Σ 1/T(pᵢ)` tasks per unit time, so
//! the ratio is achieved throughput over ideal throughput), and for adaptive
//! environments `E = 1 / Σᵢ fᵢ(T)` where `fᵢ(T)` is the fraction of the task
//! processor `i` *could* have completed during the parallel run.

/// Static nonuniform efficiency: `parallel_time` is `T(p₁,…,pₙ)`;
/// `sequential_times[i]` is `T(pᵢ)`.
///
/// # Panics
/// Panics if any time is non-positive or the list is empty.
pub fn static_efficiency(parallel_time: f64, sequential_times: &[f64]) -> f64 {
    // Caller error: the ideal rate sums over at least one processor.
    assert!(
        !sequential_times.is_empty(),
        "need at least one sequential time"
    );
    // Caller error: every time is a divisor.
    assert!(
        parallel_time > 0.0 && sequential_times.iter().all(|&t| t > 0.0),
        "times must be positive"
    );
    let ideal_rate: f64 = sequential_times.iter().map(|&t| 1.0 / t).sum();
    (1.0 / parallel_time) / ideal_rate
}

/// Adaptive efficiency: `could_have_completed[i]` is `fᵢ(T)`, the fraction
/// of the whole task processor `i` could have executed by itself during the
/// parallel run's duration (capability integrated over the run, divided by
/// the total work).
///
/// # Panics
/// Panics if the fractions are empty, any is negative, or they sum to
/// zero.
pub fn adaptive_efficiency(could_have_completed: &[f64]) -> f64 {
    // Caller error: the sum runs over at least one processor.
    assert!(
        !could_have_completed.is_empty(),
        "need at least one fraction"
    );
    // Caller error: a fraction of work done cannot be negative.
    assert!(
        could_have_completed.iter().all(|&f| f >= 0.0),
        "fractions must be non-negative"
    );
    let total: f64 = could_have_completed.iter().sum();
    // Caller error: the total is the divisor.
    assert!(total > 0.0, "at least one processor must have capacity");
    1.0 / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_reduces_to_classic() {
        // p identical machines, perfect speedup: E = 1.
        let seq = [100.0; 4];
        assert!((static_efficiency(25.0, &seq) - 1.0).abs() < 1e-12);
        // Half of ideal.
        assert!((static_efficiency(50.0, &seq) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nonuniform_weighting() {
        // A fast machine (T=50) and a slow one (T=100): ideal rate = 0.03.
        // Parallel at T=40 → E = (1/40)/0.03 = 0.8333.
        let e = static_efficiency(40.0, &[50.0, 100.0]);
        assert!((e - 0.833333333).abs() < 1e-6);
    }

    #[test]
    fn single_machine_perfect() {
        assert!((static_efficiency(100.0, &[100.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn paper_table4_shape() {
        // Table 4: T(1) = 97.61, five near-identical machines. At
        // T(1..5) = 31.50 the efficiency is ≈ 0.62.
        let seq = [97.61; 5];
        let e = static_efficiency(31.50, &seq);
        assert!((e - 0.6197).abs() < 0.01, "efficiency {e}");
    }

    #[test]
    fn adaptive_efficiency_basics() {
        // Two machines, each could have done 40% of the task: E = 1/0.8 =
        // 1.25 (super-unitary values flag that the run beat the estimate).
        assert!((adaptive_efficiency(&[0.4, 0.4]) - 1.25).abs() < 1e-12);
        // Each could have done the whole task: E = 0.5.
        assert!((adaptive_efficiency(&[1.0, 1.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_times() {
        let _ = static_efficiency(0.0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn rejects_zero_capacity() {
        let _ = adaptive_efficiency(&[0.0, 0.0]);
    }
}
