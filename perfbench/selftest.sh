#!/bin/sh
# Self-test of perfbench's answer checks. For every workload, untraced and
# traced: a run on the library as built must exit 0 with "correct": true,
# and a run with one answer deliberately corrupted (--inject-wrong-answer)
# must exit nonzero with "correct": false.
#
#   sh perfbench/selftest.sh        # from the root of a checkout; ~6 min
set -u
cd "$(dirname "$0")/.." || exit 2
out=.bench_build/selftest.out
mkdir -p .bench_build
status=0

run() {  # run <expect: pass|fail> <args...>
  expect=$1
  shift
  python3 perfbench/run.py --seed 7 --seconds 2 "$@" >"$out" 2>&1
  code=$?
  last=$(tail -n 1 "$out")
  case "$expect:$code:$last" in
    pass:0:*'"correct": true'*) echo "ok   $*" ;;
    fail:0:*) echo "FAIL $* (accepted a wrong answer)"; status=1 ;;
    fail:*:*'"correct": false'*) echo "ok   $* (rejected)" ;;
    *) echo "FAIL $* (exit $code)"; tail -n 5 "$out"; status=1 ;;
  esac
}

for workload in serve join churn shard-batch; do
  for trace in 0 1; do
    run pass --workload "$workload" --trace "$trace"
    run fail --workload "$workload" --trace "$trace" --inject-wrong-answer
  done
done
rm -f "$out"
exit $status
