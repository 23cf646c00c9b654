#!/usr/bin/env bash
# Run the tier-1 test suite three times: with OPENBLAS_NUM_THREADS unset,
# then set to 1, then to 2. Training pins BLAS to one thread, so one set of
# golden digests must hold in all three runs: they check that the thread
# setting changes no bit.
# Prints each run's five slowest tests (the criterion-8 fixture among them),
# its pass/fail line and its failures, and exits non-zero if any run fails.
# Extra arguments go to pytest.
#
#   scripts/tier1.sh            # the whole suite
#   scripts/tier1.sh -x tests/  # stop at the first failure, tests/ only
set -u
cd "$(dirname "$0")/.." || exit 2
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
status=0
for threads in unset 1 2; do
    if [ "$threads" = unset ]; then
        out=$(env -u OPENBLAS_NUM_THREADS \
              python -m pytest -q --continue-on-collection-errors --durations=5 "$@" 2>&1)
    else
        out=$(OPENBLAS_NUM_THREADS=$threads \
              python -m pytest -q --continue-on-collection-errors --durations=5 "$@" 2>&1)
    fi
    code=$?
    echo "OPENBLAS_NUM_THREADS=$threads: $(printf '%s\n' "$out" | tail -n 1)"
    printf '%s\n' "$out" | grep -E '^[0-9]+\.[0-9]+s ' || true
    if [ "$code" -ne 0 ]; then
        printf '%s\n' "$out" | grep -E '^(FAILED|ERROR) ' || true
        status=1
    fi
done
exit "$status"
