#!/usr/bin/env bash
# bench/run.sh — the one command of the benchmark.
#
#   bench/run.sh                         every workload once, plus a traced pass each; prints every metric
#   bench/run.sh --runs N                N interleaved runs per workload (browse, play, edit, audit, browse, ...)
#   bench/run.sh --aa [--runs N]         two interleaved sets of the same build, compared; non-zero on a gated "worse"
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one run in the benchmark contract's form: last stdout line is the result
#   bench/run.sh compare A.json B.json   compare two suite files
#   bench/run.sh layers                  the in-process layer rows alone
#
# Builds tbmserve and the driver from source once per checkout, into
# .bench_build/ at the repository root; everything the build and the
# runs write stays under .bench_build/ and bench/out/.
set -euo pipefail

ROOT=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$ROOT"
BUILD="$ROOT/.bench_build"
mkdir -p "$BUILD/tmp"

# Keep the toolchain's own files inside the checkout too.
export GOCACHE="$BUILD/gocache" GOTMPDIR="$BUILD/tmp" GOMODCACHE="$BUILD/gomod" GOPATH="$BUILD/gopath"
export XDG_CONFIG_HOME="$BUILD/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

needs_build() {
    [[ -x "$BUILD/tbmserve" && -x "$BUILD/tbmbench" && -f "$BUILD/stamp" ]] || return 0
    [[ -n $(find "$ROOT" -path "$BUILD" -prune -o \
        \( -name '*.go' -o -name go.mod -o -path '*/bench/specs/*.json' \) \
        -newer "$BUILD/stamp" -print -quit) ]]
}

if needs_build; then
    [[ -f "$ROOT/go.mod" && -d "$ROOT/cmd/tbmserve" ]] || {
        echo "bench/run.sh: not inside the repository: no go.mod or cmd/tbmserve next to bench/" >&2
        exit 1
    }
    start=$(date +%s.%N)
    touch "$BUILD/stamp.new"
    go build -o "$BUILD/tbmserve" ./cmd/tbmserve
    (cd "$ROOT/bench" && go build -o "$BUILD/tbmbench" ./tbmbench)
    mv "$BUILD/stamp.new" "$BUILD/stamp"
    awk -v s="$start" -v e="$(date +%s.%N)" 'BEGIN { printf "%.3f\n", e - s }' > "$BUILD/build_s"
    (git rev-parse --short HEAD 2>/dev/null || echo unknown) > "$BUILD/git_rev"
fi

for arg in "$@"; do
    if [[ $arg == --workload || $arg == --workload=* ]]; then
        exec "$BUILD/tbmbench" run "$@"
    fi
done

case "${1:-}" in
compare | layers)
    exec "$BUILD/tbmbench" "$@"
    ;;
esac

mkdir -p "$ROOT/bench/out"
aa=0
args=()
for arg in "$@"; do
    if [[ $arg == --aa ]]; then aa=1; else args+=("$arg"); fi
done
if ((aa)); then
    exec "$BUILD/tbmbench" suite --aa --out "$ROOT/bench/out/aa" "${args[@]}"
fi
exec "$BUILD/tbmbench" suite --traced --out "$ROOT/bench/out/suite.json" "${args[@]}"
