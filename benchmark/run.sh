#!/usr/bin/env bash
# The one command of BENCHMARK.json. Builds the benchmark crate (release,
# offline) and runs it from the repository root.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result object
#   bash benchmark/run.sh [--seed <n>] [--seconds <s>] [--smoke]
#       every workload untraced, then the traced pass; writes out/results.json
#   bash benchmark/run.sh --aa
#       the untraced set twice, differences printed against the bounds
#   bash benchmark/run.sh --list
#       the metric table
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# Everything written lands under benchmark/out, scratch directories of the
# durable store and rustc's temporary files included.
out="benchmark/out"
mkdir -p "$out/tmp"
export TMPDIR="$root/$out/tmp"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/wft-benchmark" --out "$out" --commit "$commit" "$@"
