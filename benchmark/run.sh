#!/usr/bin/env bash
# The repo benchmark's one command. Builds the product (`ssdrec`), the
# driver and the per-layer probes from source, then hands over to the
# driver. Run it from the root of a checkout:
#
#   benchmark/run.sh                       every workload end to end, then the traced pass
#   benchmark/run.sh --workload serve_direct --seed 3
#   benchmark/run.sh --e2e-only | --layers-only | --smoke
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    (BENCHMARK.json's form)
#   benchmark/run.sh --compare A.jsonl B.jsonl
#
# Everything it writes lands in the cargo target directory
# ($CARGO_TARGET_DIR, default ./target): build output, and results, trace
# and scratch files under <target>/benchmark/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$PWD"

# The benchmark measures the checkout it is started in; without the
# product's sources there is nothing to build or measure.
if [ ! -f "$root/Cargo.toml" ] || [ ! -d "$root/crates/cli" ] || [ ! -f "$root/BENCHMARK.json" ]; then
    echo "error: run from the root of an ssdrec checkout (no Cargo.toml, crates/cli or BENCHMARK.json in $root)" >&2
    exit 2
fi
if [ "$here" != "$root/benchmark" ]; then
    echo "error: $here is not the benchmark of the checkout in $root" >&2
    exit 2
fi

# One absolute target directory for all three packages: cargo resolves a
# relative CARGO_TARGET_DIR against each invocation's own directory.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
export CARGO_NET_OFFLINE=true

# --e2e-only and the one-run form's `--trace 0` never start a probe;
# --compare starts nothing at all.
need_cli=1
need_probes=1
prev=""
for arg in "$@"; do
    case "$prev $arg" in
        *" --e2e-only" | "--trace 0") need_probes=0 ;;
        *" --compare") need_cli=0; need_probes=0 ;;
    esac
    prev="$arg"
done

# Build output goes to stderr: standard output belongs to the results.
build() {
    cargo build --release --offline --quiet "$@" 1>&2
}

if [ "$need_cli" = 1 ]; then
    build --manifest-path "$root/Cargo.toml" -p ssdrec-cli
fi
build --manifest-path "$here/driver/Cargo.toml"

if [ "$need_probes" = 1 ]; then
    probes="$here/probes/Cargo.toml"
    # All probes in one go; if that fails, each on its own, so that one
    # broken probe costs only its own metrics. A probe that does not build
    # must not leave an older binary behind to be run in its place.
    if ! build --manifest-path "$probes" --bins; then
        echo "warning: the probes do not all build; building them one by one" >&2
        for src in "$here"/probes/src/bin/probe_*.rs; do
            name="$(basename "$src" .rs)"
            if ! build --manifest-path "$probes" --bin "$name"; then
                echo "warning: $name does not build; its metrics will be null" >&2
                rm -f "$target/release/$name"
            fi
        done
    fi
fi

exec "$target/release/ssdrec-benchmark-driver" \
    --root "$root" \
    --bin "$target/release/ssdrec" \
    --probe-dir "$target/release" \
    --out "$target/benchmark" \
    "$@"
