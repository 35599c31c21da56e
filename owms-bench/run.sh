#!/usr/bin/env bash
# Builds the program and the benchmark from source, then runs the benchmark
# on one processor with the arguments given. Run it from the root of a
# checkout:
#
#   bash owms-bench/run.sh --workload serve_seq --seed 1 --seconds 24 --trace 0
#   bash owms-bench/run.sh --smoke
#
# Both builds go to one target directory ($CARGO_TARGET_DIR, else
# owms-bench/target) so that owms-bench finds owms-serve beside itself.
# Scratch files go under .bench_scratch/ in the working directory.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
target=${CARGO_TARGET_DIR:-$here/target}

# The program under test: the repository's own owms-serve.
cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" --target-dir "$target" \
    -p openwf-net --bin owms-serve
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target"

# One processor for the benchmark and every process it starts (they inherit
# it): the last one this shell may use. On the few virtual processors of a
# shared host a wake-up that crosses processors costs several times one that
# does not, and which of the two a hand-off gets is the scheduler's choice
# (README.md, "One processor"). Without taskset the run is made unpinned
# and says so.
cpu=$(awk '/^Cpus_allowed_list:/ { n = split($2, ids, /[,-]/); print ids[n] }' \
    /proc/self/status 2>/dev/null || true)
if [ -n "$cpu" ] && command -v taskset >/dev/null 2>&1; then
    exec taskset -c "$cpu" "$target/release/owms-bench" "$@"
fi
exec "$target/release/owms-bench" "$@"
