#!/usr/bin/env bash
# The size gate: prints each crate's non-test line count — every
# crates/<crate>/src file up to its first `#[cfg(test)]` — and the total
# of the five library crates (core, text, obs, rel, workload). Fails when
# obs rises past the ceiling committed below. Lower the ceiling when a
# change shrinks obs; raise it only with a reason in the change.
#
#   ci/lines.sh    print the counts, fail if obs exceeds its ceiling
set -euo pipefail
cd "$(dirname "$0")/.."

OBS_CEILING=4011

count() {
  find "crates/$1/src" -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit} {n++} END{print n + 0}' "$f"
  done | awk '{s += $1} END{print s + 0}'
}

library=0
for dir in crates/*/; do
  crate="$(basename "$dir")"
  n="$(count "$crate")"
  printf '%-9s %6d\n' "$crate" "$n"
  case "$crate" in
    core|text|obs|rel|workload) library=$((library + n)) ;;
  esac
  [ "$crate" != obs ] || obs="$n"
done
printf '%-9s %6d\n' library "$library"
echo "obs non-test lines: $obs (ceiling $OBS_CEILING)"
if [ "$obs" -gt "$OBS_CEILING" ]; then
  echo "FAIL: obs has $obs > $OBS_CEILING non-test lines" >&2
  exit 1
fi
