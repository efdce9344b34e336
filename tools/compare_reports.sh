#!/usr/bin/env bash
# Compare the CLI reports of a base commit with those of the working tree.
#
#   tools/compare_reports.sh BASE
#
# Runs a fixed command list on a git worktree of BASE and on the working
# tree, and prints a unified diff of each command's stdout and exit code
# (and of the profile.csv that `solve --out` writes).  No output means every
# report is byte-identical.  The script exits 0 whether or not the reports
# differ, since a change that moves values changes reports on purpose; it
# fails only when a run cannot be set up.
#
# The configs are the built-in examples, written once from the working
# tree's `example_config` and read by both trees.  The list:
#   reproduce --example 1..4
#   constants, and check --which <the example's family>, on examples 1-3
#   check --which uniqueness, and solve --out (stdout and profile.csv), on example 4
#   kernel --grid 101 and --grid 4001 on example 1
set -euo pipefail

base=${1:?usage: tools/compare_reports.sh BASE}
root=$(git rev-parse --show-toplevel)
scratch=$(mktemp -d)
cleanup() {
    git -C "$root" worktree remove --force "$scratch/base" >/dev/null 2>&1 || true
    rm -rf "$scratch"
    git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$scratch/base" "$base"

configs=$scratch/configs
mkdir "$configs"
PYTHONPATH="$root/src" python3 - "$configs" <<'PY'
import json
import sys

from annulus_radial.reproduce import EXAMPLE_IDS, example_config

for k in EXAMPLE_IDS:
    with open(f"{sys.argv[1]}/example-{k}.json", "w", encoding="utf-8") as f:
        json.dump(example_config(k), f)
PY

commands() {
    local k families=(krasnoselskii avery-henderson leggett-williams)
    for k in 1 2 3 4; do
        echo "reproduce --example $k"
    done
    for k in 1 2 3; do
        echo "constants --config $configs/example-$k.json"
        echo "check --config $configs/example-$k.json --which ${families[k - 1]}"
    done
    echo "check --config $configs/example-4.json --which uniqueness"
    echo "solve --config $configs/example-4.json --out OUT"
    echo "kernel --config $configs/example-1.json --grid 101"
    echo "kernel --config $configs/example-1.json --grid 4001"
}

# every command's stdout and exit code under one source tree
reports() {
    local tree=$1 out=$scratch/out-$2 cmd status
    mkdir "$out"
    while read -r cmd; do
        echo "\$ annulus-radial ${cmd//$configs/CONFIGS}"
        status=0
        # shellcheck disable=SC2086  # the command is a word list
        (cd "$scratch" && PYTHONPATH="$tree/src" python3 -m annulus_radial.cli \
            ${cmd//OUT/$out} 2>/dev/null) || status=$?
        echo "exit $status"
        if [[ $cmd == solve* ]]; then
            echo "--- profile.csv"
            cat "$out/profile.csv" 2>/dev/null || echo "(none)"
        fi
    done < <(commands)
}

reports "$scratch/base" base > "$scratch/base.txt"
reports "$root" work > "$scratch/work.txt"
diff -u --label "$base" --label "working tree" "$scratch/base.txt" "$scratch/work.txt" || true
