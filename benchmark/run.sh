#!/usr/bin/env bash
# One command for the whole benchmark: builds the `stance-benchmark`
# package (release, offline — it has path dependencies only) and runs it.
#
#   benchmark/run.sh                      every workload, 5 repetitions each
#   benchmark/run.sh --trace              ... plus per-layer metrics, ledger, Chrome traces
#   benchmark/run.sh --quick              small meshes, 1 repetition (smoke path, ~15 s)
#   benchmark/run.sh --selfcheck          the suite twice on one build, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         the acceptance driver's contract: one workload,
#                                         result object as the last line of stdout
#
# Exits non-zero on any failed repetition, and before printing any result
# if the build fails (for instance when the library crates are missing).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
# Stay in the repository root: a relative CARGO_TARGET_DIR (the acceptance
# driver sets `.bench_build`) must resolve there, inside the checkout.
cd "$root"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

target="${CARGO_TARGET_DIR:-$here/target}"
export STANCE_BENCH_OUT="$here/out"
export STANCE_BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export STANCE_BENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/stance-benchmark" "$@"
