#!/bin/sh
# Usage: sh .github/await-exit.sh PID
#
# Wait up to 30 s for process PID to exit, as gc-serve does once
# `gc-serve shutdown` has been answered. Fails if it is still running
# then, so that a server which never exits fails the step at once
# instead of hanging the job until the CI timeout.
for _ in $(seq 1 300); do
  kill -0 "$1" 2>/dev/null || exit 0
  sleep 0.1
done
echo "process $1 still running 30 s after shutdown" >&2
exit 1
