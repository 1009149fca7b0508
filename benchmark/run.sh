#!/usr/bin/env bash
# The layered ledger: build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh [--workload NAME|all] [--seed N] [--seconds S]
#                    [--trace 0|1 | --layers] [--aa] [--quick]
#
# --workload NAME   one workload in this process; `all` (the default)
#                   runs the set as one process per workload
# --trace 1         the traced, per-layer run (binary `layers`) instead
#   (or --layers)   of the end-to-end one (binary `e2e`)
# --aa              run the end-to-end set twice and fail if any
#                   workload x metric pair disagrees beyond its bound
# --quick           small inputs, the whole set in under ten seconds
#
# Every metric is printed by name with its unit; the last line of
# standard output is the one-line JSON result. Build output goes to
# standard error. The script leaves no process behind: cargo and the
# benchmark binary both run in the foreground.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --bins 1>&2

bin=e2e
prev=
for arg in "$@"; do
    if [[ "$arg" == --layers || ( "$prev" == --trace && "$arg" == 1 ) ]]; then
        bin=layers
    fi
    prev="$arg"
done

# The checkout being measured need not be a git repository.
BENCH_COMMIT="$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT BENCH_RUSTC

exec "$target/release/$bin" "$@"
