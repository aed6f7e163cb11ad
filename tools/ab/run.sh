#!/usr/bin/env bash
# In-process A/B comparison of the simulator against a git revision.
#
#   tools/ab/run.sh REV [--smoke] [--reps N] [--seed N]
#
# Exports REV's crates/{cluster,core,classad,sim} to target/ab/old/,
# renames each package with an `-old` suffix (dependents keep the crate
# names through `package =`), and links them beside the working tree's
# crates in one release binary. `workload`, `stats` and `vendor/` are the
# working tree's for both sides. The binary runs four groups: paper_fcfs's
# 24 configurations, the 64 saturated EASY traces native and matched, and
# trace_sjf (paper_fcfs's 24 configurations under SJF). It alternates old
# and new per configuration, asserts equal outcomes and prints
# per-configuration minima and each group's summed new/old ratio.
set -euo pipefail

rev=${1:?usage: tools/ab/run.sh REV [--smoke] [--reps N] [--seed N]}
shift
root=$(git rev-parse --show-toplevel)
old=$root/target/ab/old

rm -rf "$old"
mkdir -p "$old"
git -C "$root" archive "$rev" crates/cluster crates/core crates/classad crates/sim |
    tar -x -C "$old"
for c in cluster core classad sim; do
    sed -i "s/^name = \"resmatch-$c\"$/name = \"resmatch-$c-old\"/" "$old/crates/$c/Cargo.toml"
done

# The exported crates inherit package fields and dependencies from this
# workspace: the engine crates resolve to their `-old` copies, everything
# else to the working tree.
{
    echo '[workspace]'
    echo 'members = ["crates/*"]'
    echo 'resolver = "2"'
    echo
    git -C "$root" show "$rev:Cargo.toml" | sed -n '/^\[workspace.package\]/,/^$/p'
    cat <<'TOML'
[workspace.dependencies]
resmatch-stats = { path = "../../../crates/stats" }
resmatch-workload = { path = "../../../crates/workload" }
resmatch-cluster = { path = "crates/cluster", package = "resmatch-cluster-old" }
resmatch-core = { path = "crates/core", package = "resmatch-core-old" }
resmatch-classad = { path = "crates/classad", package = "resmatch-classad-old" }
resmatch-sim = { path = "crates/sim", package = "resmatch-sim-old" }
rand = { path = "../../../vendor/rand" }
proptest = { path = "../../../vendor/proptest" }
serde = { path = "../../../vendor/serde", features = ["derive"] }
TOML
} > "$old/Cargo.toml"

exec cargo run --release --offline --quiet \
    --manifest-path "$root/tools/ab/Cargo.toml" \
    --target-dir "$root/target/ab/build" -- "$@"
