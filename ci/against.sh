#!/usr/bin/env bash
# Byte-identity of one seeded `iswitch-sim` or `paper` command between two
# builds: the working tree and an earlier revision — the equivalence check of
# a change that claims to alter no artifact.
#
#   ci/against.sh <rev> [[<out-flag>[,<out-flag>…]] -- <iswitch-sim args…|paper args…>]
#
# With no command it runs every line of ci/against.cmds, the checked-in
# equivalence list, and stops at the first that differs.
#
# Builds <rev> offline from a `git archive` copy under target/against/<sha>
# (kept, so a second command reuses the build) and the working tree in place,
# then runs the command once with each binary: `paper` when the command
# starts with `paper` (its arguments follow), `iswitch-sim` otherwise. With no
# <out-flag> the command
# is a `timing` run: each build writes artifacts/<label>-{rev,head}.
# {metrics.json,trace.jsonl,timeseries.jsonl} plus the `analyze` report of
# its own trace and timeseries, and all four must `cmp` equal. With
# <out-flag>s (as for ci/replay.sh: `--out-dir` for multi, `--report-out`
# for chaos, `--metrics-out` for cosim) those outputs are compared instead;
# the out-flag `--stdout` passes no flag and compares the command's standard
# output (convergence mode writes nothing else). A command's outputs are
# deleted once they compare equal and kept when they differ.
set -euo pipefail

usage() { sed -n '6p' "$0" >&2; exit 2; }
if [ $# -eq 1 ]; then
  while read -r line; do
    case "$line" in '' | '#'*) continue ;; esac
    read -ra cmd <<< "$line"
    "$0" "$1" "${cmd[@]}" < /dev/null
  done < "$(dirname "$0")/against.cmds"
  exit 0
fi
[ $# -ge 3 ] || usage
rev=$(git rev-parse --verify "$1^{commit}")
outs=()
if [ "$2" != "--" ]; then IFS=, read -ra outs <<< "$2"; shift; fi
[ "$2" = "--" ] || usage
shift 2

root=$(git rev-parse --show-toplevel)
old="$root/target/against/$rev"
program=(--bin iswitch-sim)
args=("$@")
if [ "$1" = paper ]; then
  program=(-p iswitch-bench --bin paper)
  args=("${@:2}")
fi
if [ ! -x "$old/target/release/${program[-1]}" ]; then
  if [ ! -f "$old/Cargo.toml" ]; then
    mkdir -p "$old"
    git -C "$root" archive "$rev" | tar -x -C "$old"
  fi
  cargo build --release --offline --quiet "${program[@]}" --manifest-path "$old/Cargo.toml"
fi
cargo build --release --offline --quiet "${program[@]}" --manifest-path "$root/Cargo.toml"

mkdir -p artifacts
label="against-$(printf '%s ' "$@" | cksum | cut -d' ' -f1)"
for build in rev head; do
  bin="$root/target/release/${program[-1]}"
  [ "$build" = head ] || bin="$old/target/release/${program[-1]}"
  out="artifacts/$label-$build"
  if [ ${#outs[@]} -eq 0 ]; then
    "$bin" "${args[@]}" --metrics-out "$out.metrics.json" --trace-out "$out.trace.jsonl" \
      --timeseries-out "$out.timeseries.jsonl" > /dev/null
    "$bin" analyze --trace "$out.trace.jsonl" --timeseries "$out.timeseries.jsonl" \
      --out "$out.report.json" > /dev/null
  else
    flags=()
    stdout=/dev/null
    for flag in "${outs[@]}"; do
      if [ "$flag" = --stdout ]; then stdout="$out.stdout"; else flags+=("$flag" "$out.${flag#--}"); fi
    done
    "$bin" "${args[@]}" "${flags[@]}" > "$stdout"
  fi
done

names=(metrics.json trace.jsonl timeseries.jsonl report.json)
[ ${#outs[@]} -eq 0 ] || names=("${outs[@]#--}")
for name in "${names[@]}"; do
  diff -rq "artifacts/$label-rev.$name" "artifacts/$label-head.$name"
done
# Equal outputs have nothing more to show, and a full run of against.cmds
# leaves gigabytes of them; a mismatch exits above and keeps them.
rm -rf "artifacts/$label-rev."* "artifacts/$label-head."*
echo "identical to ${rev:0:7}: $*"
