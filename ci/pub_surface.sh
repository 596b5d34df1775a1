#!/usr/bin/env bash
# The public-surface gate: every `pub fn` of a library crate (core, text,
# obs, rel, workload — each file up to its first `#[cfg(test)]`) should be
# named by some `.rs` file outside that crate's `src/`: another crate, a
# root or crate test, an example, a bench binary, or `perf/`. Anything
# else belongs at `pub(crate)`, where rustc's dead-code lint can see it.
#
# A name match is a word grep, so it over-approximates callers (`new` is
# named everywhere) and proves nothing on its own; the compiler is the
# proof: narrow, then `cargo check --workspace --all-targets` and `perf/`.
# The script only keeps the count from creeping back up. It prints each
# uncalled name and fails when their count rises past the ceiling below.
#
# Kept public with no outside caller (the grep misses them: the words
# occur elsewhere), each for a reason:
#   is_empty  on RingSink, RelSchema, TextSchema, FieldList, PostingList:
#             clippy's len_without_is_empty wants it beside a public `len`;
#   skipped   on Monitor: the count of events past MAX_WINDOWS, the
#             monitor's one view of input it refused.
# A function the grep does flag and that stays public is named here with
# its reason, and the ceiling raised with it.
#
#   ci/pub_surface.sh    print the uncalled names and the count
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=0

rust_files() {
  find . \( -name target -o -name .git -o -name .bench_build \) -prune -o -name '*.rs' -print
}

count=0
for crate in core text obs rel workload; do
  outside="$(rust_files | grep -v "^\./crates/$crate/src/")"
  names="$(find "crates/$crate/src" -name '*.rs' | sort | while read -r f; do
    awk '/#\[cfg\(test\)\]/{exit}
      match($0, /pub fn [A-Za-z_][A-Za-z0-9_]*/) { print substr($0, RSTART + 7, RLENGTH - 7) }' "$f"
  done | sort -u)"
  for name in $names; do
    # shellcheck disable=SC2086  # one path per word by construction
    if ! grep -qw -- "$name" $outside; then
      echo "crates/$crate: pub fn $name has no caller outside its crate"
      count=$((count + 1))
    fi
  done
done
echo "public functions with no outside caller: $count (ceiling $CEILING)"
if [ "$count" -gt "$CEILING" ]; then
  echo "FAIL: $count > $CEILING; narrow them to pub(crate) or name the exception here" >&2
  exit 1
fi
