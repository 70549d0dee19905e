#!/usr/bin/env bash
# Byte-identity of one seeded `iswitch-sim` command across replays.
#
#   ci/replay.sh <label> <out-flag>[,<out-flag>…] [--also "<args>"]… -- <iswitch-sim args…>
#
# Runs the command as given (run a), then once more as given (run b) or,
# with --also, once per --also with those arguments appended (runs b, c, …;
# --also "" is a plain replay). Every run is passed each <out-flag> with the
# path artifacts/<label>-<run>.<flag name>, and every run's outputs — files,
# or directories for --out-dir — must be byte-identical to run a's.
set -euo pipefail

usage() { sed -n '2,5p' "$0" >&2; exit 2; }
[ $# -ge 4 ] || usage
label=$1
IFS=, read -ra outs <<< "$2"
shift 2
variants=("")
while [ "${1-}" = "--also" ]; do variants+=("$2"); shift 2; done
[ "${1-}" = "--" ] || usage
shift
[ ${#variants[@]} -gt 1 ] || variants+=("")

mkdir -p artifacts
runs=(a b c d e f)
for i in "${!variants[@]}"; do
  flags=()
  for out in "${outs[@]}"; do
    flags+=("$out" "artifacts/$label-${runs[$i]}.${out#--}")
  done
  read -ra extra <<< "${variants[$i]}"
  cargo run --release --quiet --bin iswitch-sim -- "$@" "${extra[@]}" "${flags[@]}"
  for out in "${outs[@]}"; do
    diff -rq "artifacts/$label-a.${out#--}" "artifacts/$label-${runs[$i]}.${out#--}"
  done
done
