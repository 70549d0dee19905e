#!/usr/bin/env bash
# Byte-identity of one seeded `iswitch-sim` command's artifacts.
#
#   ci/identity.sh <label> -- <iswitch-sim args…>
#
# Runs the command at --threads 1, 2 and 4 when the args contain --fattree
# (the cut partition must not leak its thread count), twice otherwise, each
# run writing artifacts/<label>-<run>.{metrics.json,trace.jsonl,timeseries.jsonl},
# and `cmp`s every artifact of every run against the first run's.
set -euo pipefail

label=$1
[ "$2" = "--" ] || { echo "usage: $0 <label> -- <iswitch-sim args…>" >&2; exit 2; }
shift 2

case " $* " in
  *" --fattree "*) runs=(t1 t2 t4) ;;
  *) runs=(a b) ;;
esac

mkdir -p artifacts
for run in "${runs[@]}"; do
  out="artifacts/$label-$run"
  threads=()
  if [ "${run#t}" != "$run" ]; then threads=(--threads "${run#t}"); fi
  cargo run --release --quiet --bin iswitch-sim -- "$@" "${threads[@]}" \
    --metrics-out "$out.metrics.json" \
    --trace-out "$out.trace.jsonl" \
    --timeseries-out "$out.timeseries.jsonl"
done

first="artifacts/$label-${runs[0]}"
python3 -m json.tool "$first.metrics.json" > /dev/null
for run in "${runs[@]:1}"; do
  for artifact in metrics.json trace.jsonl timeseries.jsonl; do
    cmp "$first.$artifact" "artifacts/$label-$run.$artifact"
  done
done
