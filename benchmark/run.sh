#!/usr/bin/env bash
# The repo's one benchmark command.
#
#   benchmark/run.sh                      every workload, end to end
#   benchmark/run.sh --traced             every workload, per-layer (traced) run
#   benchmark/run.sh --workload sim-cad --seed 7 --seconds 10 --trace 0
#   benchmark/run.sh compare A.jsonl B.jsonl
#
# Builds the root release binaries (pfsim, pfserve) and the harness,
# offline, then hands every argument to pfbench. The last line on stdout
# is the result as one JSON object; the table of metrics goes to stderr.
# Exit code: 0 all checks passed, 1 an output check failed, 2 anything else.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [ ! -f "$root/Cargo.toml" ]; then
    echo "run.sh: no Cargo.toml in $root: the benchmark builds pfsim and pfserve from the repo around it" >&2
    exit 2
fi

# The harness links the crates pfsim/pfserve are built from; profiles come
# from whichever manifest is being built, so the two tables must agree or
# in-process and binary numbers stop being comparable.
profile() {
    awk '/^\[profile\.release\]/ {on=1; next} /^\[/ {on=0} on && NF {gsub(/[ \t]/, ""); print}' "$1" | sort
}
if [ "$(profile "$root/Cargo.toml")" != "$(profile "$here/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 2
fi

# One target directory for both builds when the caller names one (relative
# names are the caller's, so resolve them before cargo changes directory);
# cargo's own defaults otherwise.
if [ -n "${CARGO_TARGET_DIR:-}" ]; then
    CARGO_TARGET_DIR="$(realpath -m "$CARGO_TARGET_DIR")"
    export CARGO_TARGET_DIR
    root_target="$CARGO_TARGET_DIR"
    harness_target="$CARGO_TARGET_DIR"
else
    root_target="$root/target"
    harness_target="$here/target"
fi

build_started=$(date +%s.%N)
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p prefetch-sim -p prefetch-serve >&2 || exit 2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2 || exit 2
build_s=$(echo "$(date +%s.%N) $build_started" | awk '{printf "%.3f", $1 - $2}')

if [ "${1:-}" = "compare" ] || [ "${1:-}" = "manifest" ]; then
    exec "$harness_target/release/pfbench" "$@"
fi
exec "$harness_target/release/pfbench" "$@" \
    --bin-dir "$root_target/release" --out-dir "$here/out" --build-s "$build_s"
