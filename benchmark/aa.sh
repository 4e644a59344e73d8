#!/usr/bin/env bash
# Collects one set of runs for the A/A check: every workload RUNS times,
# each time with another seed, appended to OUTDIR/results.jsonl. Run it
# twice into two directories and hand both files to `-compare`.
#
#   bash benchmark/aa.sh benchmark/out/a && bash benchmark/aa.sh benchmark/out/b
#   .bench_build/argo-benchmark -compare benchmark/out/a/results.jsonl benchmark/out/b/results.jsonl
set -euo pipefail
out=${1:?usage: aa.sh OUTDIR [RUNS] [FIRST_SEED]}
runs=${2:-10}
first=${3:-1}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
mapfile -t spec < <(bash "$here/run.sh" -list)
seconds=${spec[0]}
workloads=${spec[*]:1}
for ((seed = first; seed < first + runs; seed++)); do
	for w in $workloads; do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" >/dev/null
	done
done
