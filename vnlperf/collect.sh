#!/usr/bin/env bash
# Runs one workload once per seed and appends each run's result, with its
# workload-specific metrics merged in, as one JSON line to OUT:
#
#   bash vnlperf/collect.sh OUT WORKLOAD SECONDS SEED...
#
# Two such files feed the comparison:
#
#   .bench_build/vnlperf compare -bench BENCHMARK.json old.jsonl new.jsonl
set -euo pipefail

out=$1 workload=$2 seconds=$3
shift 3
for seed in "$@"; do
	log=$(bash vnlperf/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
	extra=$(printf '%s\n' "$log" | tail -n 2 | head -n 1)
	result=$(printf '%s\n' "$log" | tail -n 1)
	python3 -c 'import json,sys
e=json.loads(sys.argv[1]); r=json.loads(sys.argv[2])
r.update(workload=e["workload"], seed=e["seed"], extra=e["extra"])
print(json.dumps(r))' "$extra" "$result" >> "$out"
done
