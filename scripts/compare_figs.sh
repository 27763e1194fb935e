#!/usr/bin/env bash
# Byte-compares the fast-mode stdout of every figure and ablation binary in
# two builds of this repo: the check that a change leaves every figure as
# it was.
#
#   scripts/compare_figs.sh OLD_BUILD NEW_BUILD [--jobs N]
#
# Each binary built from bench/*.cpp (except abl_sim_micro, whose google-
# benchmark output is wall-clock) runs with PRISM_BENCH_FAST=1 --jobs=N in
# both builds, each in its own scratch working directory (the binaries
# write results/*.json relative to it). The two stdouts are compared with
# cmp. Prints one line per binary; exits 1 if any binary differs, is
# missing or fails in either build, 2 on bad usage.
set -uo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/compare_figs.sh OLD_BUILD NEW_BUILD [--jobs N]" >&2
  exit 2
}
[[ $# -ge 2 ]] || usage
OLD="$(cd "$1" 2>/dev/null && pwd)" || usage
NEW="$(cd "$2" 2>/dev/null && pwd)" || usage
shift 2
JOBS="$(nproc 2>/dev/null || echo 2)"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs) [[ $# -ge 2 ]] || usage; JOBS="$2"; shift ;;
    --jobs=*) JOBS="${1#--jobs=}" ;;
    *) usage ;;
  esac
  shift
done

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Runs build $1's binary $2; stdout goes to $WORK/$2.$3.out.
run() {
  local dir="$WORK/$2.$3"
  mkdir -p "$dir"
  (cd "$dir" && PRISM_BENCH_FAST=1 "$1/bench/$2" --jobs="$JOBS" \
      >"$WORK/$2.$3.out" 2>/dev/null)
}

differ=0
total=0
for src in bench/*.cpp; do
  name="$(basename "$src" .cpp)"
  [[ "$name" == abl_sim_micro ]] && continue
  total=$((total + 1))
  if [[ ! -x "$OLD/bench/$name" || ! -x "$NEW/bench/$name" ]]; then
    echo "MISSING  $name"
    differ=$((differ + 1))
    continue
  fi
  if ! run "$OLD" "$name" old; then
    echo "FAILED   $name (old build)"
    differ=$((differ + 1))
    continue
  fi
  if ! run "$NEW" "$name" new; then
    echo "FAILED   $name (new build)"
    differ=$((differ + 1))
    continue
  fi
  if cmp -s "$WORK/$name.old.out" "$WORK/$name.new.out"; then
    echo "same     $name"
  else
    echo "DIFFERS  $name"
    differ=$((differ + 1))
  fi
done

echo "$((total - differ))/$total binaries byte-identical (--jobs=$JOBS)"
[[ "$differ" -eq 0 ]]
