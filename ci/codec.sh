#!/usr/bin/env bash
# Codec smoke: the seeded co-sim per codec, byte-identical across replays,
# and each quantised codec's measured reference error inside its envelope.
#
#   ci/codec.sh
#
# `--codec f32` must write exactly what the default does; fixed-point,
# block-float and top-k each complete the co-sim — real agent gradients
# quantised, summed in the switch's native representation, decoded,
# applied — twice, byte-identically (ci/replay.sh, under artifacts/). The
# decoded aggregate's mean error against the exact host-side mean must stay
# under ~2^-13 relative for fixed-point mantissas, ~2^-5 for block-float's
# shared exponents and a bounded sparsification error for top-k: a codec
# past its ceiling broke quantisation or exponent reconciliation, even if
# it replays identically.
set -euo pipefail

cosim=(timing --fidelity cosim --algorithm a2c --strategy isw --workers 3 --iterations 200)
ci/replay.sh codec-f32 --metrics-out --also "--codec f32" -- "${cosim[@]}"
for c in fixed-point block-float top-k; do
  ci/replay.sh "codec-$c" --metrics-out -- "${cosim[@]}" --codec "$c"
done

python3 - <<'EOF'
import json
ceilings = {"fixed-point": 1e-3, "block-float": 5e-2, "top-k": 5e-1}
for codec, ceiling in ceilings.items():
    d = json.load(open(f"artifacts/codec-{codec}-a.metrics-out"))
    assert d["codec"] == codec, d.get("codec")
    mean = d["ref_error_mean"]
    assert 0 < mean < ceiling, f"{codec}: mean ref error {mean} outside (0, {ceiling})"
    assert d["ref_error_max"] >= mean
    print(f"{codec}: mean ref error {mean:.3g} < {ceiling}")
EOF
