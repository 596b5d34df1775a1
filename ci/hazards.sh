#!/usr/bin/env bash
# The panic-site gate: counts `.unwrap(` and `.expect(` in library code —
# every crates/*/src file up to its first `#[cfg(test)]` — and fails when
# the count rises past the committed ceiling below. Lower the ceiling when
# a change removes sites; raise it only with a reason in the change.
#
#   ci/hazards.sh           print the count, fail if it exceeds the ceiling
#   ci/hazards.sh --list    ... and print each site as file:line: text
set -euo pipefail
cd "$(dirname "$0")/.."

CEILING=68

list=0
case "${1:-}" in
  '') ;;
  --list) list=1 ;;
  *) echo "usage: $0 [--list]" >&2; exit 2 ;;
esac

sites="$(find crates/*/src -name '*.rs' | sort | while read -r f; do
  awk -v f="$f" '/#\[cfg\(test\)\]/{exit}
    { n = gsub(/\.(unwrap|expect)\(/, "&"); for (i = 0; i < n; i++) print f ":" FNR ": " $0 }' "$f"
done)"
count="$(printf '%s' "$sites" | grep -c . || true)"
[ "$list" -eq 0 ] || printf '%s\n' "$sites"
echo "unwrap/expect sites in library code: $count (ceiling $CEILING)"
if [ "$count" -gt "$CEILING" ]; then
  echo "FAIL: $count > $CEILING; run ci/hazards.sh --list" >&2
  exit 1
fi
