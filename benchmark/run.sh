#!/usr/bin/env bash
# The repo's benchmark. Builds offline against the std-only stand-ins in
# benchmark/shims (always, on every host), then:
#
#   run.sh --workload W --seed S --seconds T --trace 0|1
#       one pass of one workload; the last line of output is its JSON result
#   run.sh [--seed S] [--quick]
#       the full protocol (full_run.py): rounds of that pass pooled, layer
#       passes, benchmark/out/result.json
#   run.sh --selftest
#       the shims' unit tests and the verifier's negative test
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Build products stay inside the checkout.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest="benchmark/Cargo.toml"
bin="$CARGO_TARGET_DIR/release/pgxd-benchmark"

if [ "$(nproc)" -lt 2 ]; then
    echo "run.sh: warning: nproc < 2, so machine threads only time-slice and every number below is slower than the ledger's" >&2
fi

# Quiet when up to date, so a pass's output is the program's alone.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2

case " $* " in
    *" --selftest "*)
        cargo test --release --offline --quiet --manifest-path "$manifest" --workspace >&2
        exec "$bin" --selftest
        ;;
    *" --workload "*)
        # A hung sort must not outlive the 180 s a pass is allowed.
        exec timeout --kill-after=5 170 "$bin" "$@"
        ;;
    *)
        exec python3 benchmark/full_run.py --bin "$bin" "$@"
        ;;
esac
