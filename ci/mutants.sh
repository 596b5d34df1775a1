#!/usr/bin/env bash
# The mutant gate: each ci/mutants/*.patch breaks one invariant on
# purpose, and its header names the test that must then fail:
#
#   Mutant: <what the patch breaks>
#   Test: <cargo test arguments selecting exactly the killing test>
#
# The tree under test is the checkout's tracked files, uncommitted edits
# included. It is copied into a scratch `git worktree` under `mktemp -d`;
# every named test must pass there first. Then each patch is applied,
# only its test is run, and the patch is reverted. All builds share one
# CARGO_TARGET_DIR (the caller's, else one in the scratch directory), so
# each mutant rebuilds incrementally. Once every patch is reverted, each
# named test is built once more from the unmutated tree: cargo keys its
# fingerprints on package-relative paths and mtimes, so a checkout sharing
# the target directory would otherwise take the last mutant's build as
# fresh and run it.
#
# Prints `killed/total`. Fails if a named test fails unmutated, a patch no
# longer applies, a mutant does not build, or a mutant survives — the
# change that moved the code re-cuts the patch.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

patches=(ci/mutants/*.patch)

scratch="$(mktemp -d)"
tree="$scratch/tree"
cleanup() {
  git -C "$root" worktree remove --force "$tree" >/dev/null 2>&1 || true
  rm -rf "$scratch"
}
trap cleanup EXIT
rev="$(git stash create)"
git worktree add -q --detach "$tree" "${rev:-HEAD}"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$scratch/target}"

header() { sed -n "s/^$1: //p" "$2" | head -n 1; }

# Unmutated, every named test runs and passes: a kill must be the
# mutant's doing.
for p in "${patches[@]}"; do
  read -r -a args <<< "$(header Test "$root/$p")"
  [ "${#args[@]}" -gt 0 ] || { echo "FAIL $p: no Test: header" >&2; exit 1; }
  (cd "$tree" && cargo test -q "${args[@]}" -- --exact 2>&1) | grep -q 'test result: ok. 1 passed' ||
    { echo "FAIL $p: its test does not pass, alone, on the unmutated tree" >&2; exit 1; }
done

killed=0 failed=0
for p in "${patches[@]}"; do
  read -r -a args <<< "$(header Test "$root/$p")"
  if ! git -C "$tree" apply "$root/$p"; then
    echo "FAIL $p: no longer applies" >&2
    failed=1
    continue
  fi
  if ! (cd "$tree" && cargo test -q --no-run "${args[@]}" >/dev/null 2>&1); then
    echo "FAIL $p: the mutant does not build" >&2
    failed=1
  elif (cd "$tree" && cargo test -q "${args[@]}" -- --exact >/dev/null 2>&1); then
    echo "SURVIVED $p: $(header Mutant "$root/$p")" >&2
    failed=1
  else
    echo "killed   $p"
    killed=$((killed + 1))
  fi
  git -C "$tree" apply -R "$root/$p"
done
for p in "${patches[@]}"; do
  read -r -a args <<< "$(header Test "$root/$p")"
  (cd "$tree" && cargo test -q --no-run "${args[@]}" >/dev/null 2>&1) ||
    { echo "FAIL: the unmutated tree does not rebuild for $p" >&2; failed=1; }
done
echo "mutants killed: $killed/${#patches[@]}"
exit "$failed"
