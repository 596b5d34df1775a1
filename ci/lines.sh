#!/usr/bin/env bash
# The size gate: prints each crate's non-test line count — every
# crates/<crate>/src file up to its first `#[cfg(test)]` — and the total
# of the five library crates (core, text, obs, rel, workload). Fails when
# obs or the library total rises past its ceiling committed below. Lower
# a ceiling when a change shrinks it; raise it only with a reason in the
# change.
#
#   ci/lines.sh    print the counts, fail if a ceiling is exceeded
set -euo pipefail
cd "$(dirname "$0")/.."

OBS_CEILING=3993
LIBRARY_CEILING=19022

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
echo "library non-test lines: $library (ceiling $LIBRARY_CEILING)"
if [ "$obs" -gt "$OBS_CEILING" ]; then
  echo "FAIL: obs has $obs > $OBS_CEILING non-test lines" >&2
  exit 1
fi
if [ "$library" -gt "$LIBRARY_CEILING" ]; then
  echo "FAIL: the library crates have $library > $LIBRARY_CEILING non-test lines" >&2
  exit 1
fi
