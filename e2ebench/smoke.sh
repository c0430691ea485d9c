#!/bin/sh
# Smoke run of the benchmark from a clean build: the metric tests, then
# every workload for one second, untraced and traced. Stops at the first
# failure. Takes a few minutes, most of it the build.
#   sh e2ebench/smoke.sh
set -eu
cd "$(dirname "$0")/.."
E2EBENCH_BUILD_DIR=.bench_build/smoke
export E2EBENCH_BUILD_DIR
rm -rf "$E2EBENCH_BUILD_DIR"
python3 -m unittest discover -s e2ebench -p 'test_*.py'
for workload in variational_loop wide_sampling open_loop_admission; do
  for trace in 0 1; do
    python3 e2ebench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace "$trace"
  done
done
echo "smoke: every workload passed its checks"
