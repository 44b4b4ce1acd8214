#!/usr/bin/env bash
# Build the benchmark and run it: one workload per process.
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# Without --workload every workload runs in turn, each in a fresh process.
# The last line each process prints is its result as one JSON object.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# What is measured is the library's defaults: drop every PPQ_* knob.
for v in $(compgen -e | grep '^PPQ_' || true); do unset "$v"; done
# Data-parallel stages get every core; the result line records the count.
export RAYON_NUM_THREADS="$(nproc)"
# Keep freed memory inside the process. On this kind of sandbox a page
# handed back to the OS costs ~5 us to touch again, which otherwise
# decides every repetition's time. Same settings on every commit.
export MALLOC_TRIM_THRESHOLD_=8589934592 MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TOP_PAD_=67108864

# Built into the shared target directory unless the caller names another.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/ppq-benchmark" ;;
  *) bin="$root/$CARGO_TARGET_DIR/release/ppq-benchmark" ;;
esac

case " $* " in
  *" --workload "*) exec "$bin" "$@" ;;
esac
for w in build mem_query disk_spill tcp_read live_mixed; do
  "$bin" --workload "$w" "$@"
done
