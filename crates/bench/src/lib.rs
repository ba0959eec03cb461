//! Shared harness code for the table/figure reproduction binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! "Reproduction harness" in the workspace `README.md` for the index) and
//! prints a paper-formatted table with the original numbers alongside, so
//! shape comparisons are immediate. Sample counts honor the
//! `STANCE_SAMPLES` environment variable (default = the paper's 100) so
//! quick runs are possible: `STANCE_SAMPLES=5 cargo run --release -p
//! stance-bench --bin table2`.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

pub mod ablations;
pub mod figures;
pub mod fmt;
pub mod tables;

pub use fmt::TableBuilder;

/// Number of random samples for averaged experiments (paper: 100).
pub fn sample_count() -> usize {
    count_from_env("STANCE_SAMPLES", 100)
}

/// Iterations for the big loop experiments (paper: 500). Override with
/// `STANCE_ITERATIONS` for quick runs.
pub fn iteration_count() -> usize {
    count_from_env("STANCE_ITERATIONS", stance::scenarios::PAPER_ITERATIONS)
}

/// The positive count in environment variable `var`, or `default` when
/// it is unset. Anything but a positive integer ends the process with a
/// message naming the variable: zero samples average to `inf`, and a typo
/// silently falling back to the paper's full count is a surprise of
/// minutes.
fn count_from_env(var: &str, default: usize) -> usize {
    let Some(raw) = std::env::var_os(var) else {
        return default;
    };
    parse_count(var, &raw.to_string_lossy()).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

fn parse_count(var: &str, raw: &str) -> Result<usize, String> {
    match raw.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{var} must be a positive integer, got {raw:?}")),
    }
}

/// A seeded RNG for workload generation; `STANCE_SEED` overrides.
pub fn workload_rng(stream: u64) -> StdRng {
    let seed = std::env::var("STANCE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE_u64);
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A random capability vector: `p` weights in `(0.05, 1.05)`, representing
/// workstations with arbitrary relative power (Table 1/2's "randomly
/// generated samples").
pub fn random_capabilities(rng: &mut StdRng, p: usize) -> Vec<f64> {
    (0..p).map(|_| 0.05 + rng.random::<f64>()).collect()
}

/// Writes experiment output both to stdout and to `results/<name>.txt`
/// under the workspace root (best effort — printing still succeeds if the
/// directory is read-only).
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), content);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capabilities_positive() {
        let mut rng = workload_rng(1);
        let caps = random_capabilities(&mut rng, 20);
        assert_eq!(caps.len(), 20);
        assert!(caps.iter().all(|&c| c > 0.0));
    }

    #[test]
    fn counts_reject_zero_and_garbage_naming_the_variable() {
        assert_eq!(parse_count("STANCE_SAMPLES", "5"), Ok(5));
        for raw in ["0", "5x", "", "-3", "1.5"] {
            let msg = parse_count("STANCE_SAMPLES", raw).expect_err(raw);
            assert!(msg.contains("STANCE_SAMPLES"), "{msg}");
            assert!(msg.contains(raw), "{msg}");
        }
    }

    #[test]
    fn rng_streams_differ() {
        let a: f64 = workload_rng(1).random();
        let b: f64 = workload_rng(2).random();
        assert_ne!(a, b);
    }
}
