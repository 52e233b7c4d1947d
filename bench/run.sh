#!/usr/bin/env bash
# Builds the benchmark from source into bench/out (build cache included, so
# nothing is written outside the checkout) and runs it from the caller's
# directory. All arguments go to the binary; see README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
export GOCACHE="$here/out/gocache" GOWORK=off
(cd "$here" && go build -o out/saql-bench .)
exec "$here/out/saql-bench" "$@"
