#!/usr/bin/env bash
# The workspace's whole command surface is three executables:
# `cargo build --release --workspace` must leave exactly iswitch-sim, paper
# and perfgate in target/release/ (proc-macro dylibs aside).
set -euo pipefail

cargo build --release --workspace
built=$(find target/release -maxdepth 1 -type f -executable ! -name '*.so' -printf '%f\n' | sort | xargs)
[ "$built" = "iswitch-sim paper perfgate" ] || { echo "target/release holds: $built" >&2; exit 1; }
