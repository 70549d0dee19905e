#!/usr/bin/env bash
# Byte-identity of one seeded `iswitch-sim` command between two builds: the
# working tree and an earlier revision — the equivalence check of a change
# that claims to alter no artifact.
#
#   ci/against.sh <rev> [<out-flag>[,<out-flag>…]] -- <iswitch-sim args…>
#
# Builds <rev> offline from a `git archive` copy under target/against/<sha>
# (kept, so a second command reuses the build) and the working tree in place,
# then runs the command once with each binary. With no <out-flag> the command
# is a `timing` run: each build writes artifacts/<label>-{rev,head}.
# {metrics.json,trace.jsonl,timeseries.jsonl} plus the `analyze` report of
# its own trace and timeseries, and all four must `cmp` equal. With
# <out-flag>s (as for ci/replay.sh: `--out-dir` for multi, `--report-out`
# for chaos, `--metrics-out` for cosim) those outputs are compared instead.
set -euo pipefail

usage() { sed -n '6p' "$0" >&2; exit 2; }
[ $# -ge 3 ] || usage
rev=$(git rev-parse --verify "$1^{commit}")
outs=()
if [ "$2" != "--" ]; then IFS=, read -ra outs <<< "$2"; shift; fi
[ "$2" = "--" ] || usage
shift 2

root=$(git rev-parse --show-toplevel)
old="$root/target/against/$rev"
if [ ! -x "$old/target/release/iswitch-sim" ]; then
  mkdir -p "$old"
  git -C "$root" archive "$rev" | tar -x -C "$old"
  cargo build --release --offline --quiet --bin iswitch-sim --manifest-path "$old/Cargo.toml"
fi
cargo build --release --offline --quiet --bin iswitch-sim --manifest-path "$root/Cargo.toml"

mkdir -p artifacts
label="against-$(printf '%s ' "$@" | cksum | cut -d' ' -f1)"
for build in rev head; do
  bin="$root/target/release/iswitch-sim"
  [ "$build" = head ] || bin="$old/target/release/iswitch-sim"
  out="artifacts/$label-$build"
  if [ ${#outs[@]} -eq 0 ]; then
    "$bin" "$@" --metrics-out "$out.metrics.json" --trace-out "$out.trace.jsonl" \
      --timeseries-out "$out.timeseries.jsonl" > /dev/null
    "$bin" analyze --trace "$out.trace.jsonl" --timeseries "$out.timeseries.jsonl" \
      --out "$out.report.json" > /dev/null
  else
    flags=()
    for flag in "${outs[@]}"; do flags+=("$flag" "$out.${flag#--}"); done
    "$bin" "$@" "${flags[@]}" > /dev/null
  fi
done

names=(metrics.json trace.jsonl timeseries.jsonl report.json)
[ ${#outs[@]} -eq 0 ] || names=("${outs[@]#--}")
for name in "${names[@]}"; do
  diff -rq "artifacts/$label-rev.$name" "artifacts/$label-head.$name"
done
echo "identical to ${rev:0:7}: $*"
