#!/usr/bin/env bash
# The determinism gate: runs every line of ci/determinism.manifest twice
# and fails if the two outputs differ by a byte.
#
#   ci/run_twice.sh                 run twice, diff
#   ci/run_twice.sh --save DIR      ... and keep each output as DIR/<name>.txt
#   ci/run_twice.sh --against DIR   ... and diff each output against DIR/<name>.txt
#
# --save on the parent commit, then --against on the change, is the
# "byte-identical to the parent" check. Binaries are built once
# (release) and run from the target directory. The script runs from the
# repository root: give DIR (and CARGO_TARGET_DIR) as absolute paths.
set -euo pipefail
cd "$(dirname "$0")/.."

save="" against=""
while [ $# -gt 0 ]; do
  case "$1" in
    --save) save="${2:?--save needs a directory}"; shift 2 ;;
    --against) against="${2:?--against needs a directory}"; shift 2 ;;
    *) echo "usage: $0 [--save DIR] [--against DIR]" >&2; exit 2 ;;
  esac
done

cargo build -q --release -p textjoin-bench --bins
bin_dir="${CARGO_TARGET_DIR:-target}/release"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
[ -z "$save" ] || mkdir -p "$save"

failed=0
while read -r bin args; do
  case "$bin" in ''|'#'*) continue ;; esac
  name="$(echo "$bin $args" | tr -s ' -' '-' | sed 's/-$//')"
  # shellcheck disable=SC2086  # args is a word list by design
  "$bin_dir/$bin" $args > "$tmp/$name.1"
  # shellcheck disable=SC2086
  "$bin_dir/$bin" $args > "$tmp/$name.2"
  if ! diff -u "$tmp/$name.1" "$tmp/$name.2"; then
    echo "FAIL $name: two runs differ" >&2
    failed=1
  elif [ -n "$against" ] && ! diff -u "$against/$name.txt" "$tmp/$name.1"; then
    echo "FAIL $name: differs from $against/$name.txt" >&2
    failed=1
  else
    echo "ok   $name"
  fi
  [ -z "$save" ] || cp "$tmp/$name.1" "$save/$name.txt"
done < ci/determinism.manifest
exit "$failed"
