#!/usr/bin/env bash
# Builds every example in the workspace — four in the root package, two in
# iswitch-rl — and runs each at its smallest size: each must exit 0.
#
#   ci/examples.sh
#
# Only `watch_training` takes a size (`[algorithm] [iterations]`); it runs
# two iterations of each algorithm. The others have one size.
set -euo pipefail

cargo build --release --workspace --examples
run() {
  echo "== $*"
  target/release/examples/"$@" > /dev/null
}
for e in quickstart async_pipeline multi_tenant train_cartpole ppo_bandit; do
  run "$e"
done
for alg in dqn a2c ppo ddpg; do
  run watch_training "$alg" 2
done
