#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Called from the root of
# a checkout as `bash benchmark/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>`. Everything the build and the run leave
# behind stays under .bench_build/ in that checkout.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The toolchain keeps its cache, and the counters it writes under the
# user's config directory, inside the checkout too.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/argo-benchmark" .) >&2
exec "$build/argo-benchmark" -tmp "$build/tmp" "$@"
