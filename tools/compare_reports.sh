#!/usr/bin/env bash
# Compare the CLI reports of a base commit with those of the working tree.
#
#   tools/compare_reports.sh BASE
#
# Runs a fixed command list on a git worktree of BASE and on the working
# tree, and prints a unified diff of each command's stdout, stderr and exit
# code (and of the profile.csv that `solve --out` writes).  In stderr, the
# source tree and config paths read TREE and CONFIGS.  No output means every
# report is byte-identical.  The script exits 0 whether or not the reports
# differ, since a change that moves values changes reports on purpose; it
# fails only when a run cannot be set up.
#
# The configs are the built-in examples, written once from the working
# tree's `example_config` and read by both trees.  The list:
#   reproduce --example 1..4
#   constants, and check --which <the example's family>, on examples 1-3
#   check --which uniqueness, and solve --out (stdout and profile.csv), on example 4
#   solve (stdout) on example 4 at grid_size 2^17 + 1, a grid of several
#   blocks, so that the solver's multi-block fold reaches the diff
#   solve --multistart on example 1, several Picard runs on one spec
#   kernel --grid 101 and --grid 4001 on example 1
#   kernel --grid 5 --table on example 1, the kernel matrix as CSV
#   constants, and check --which krasnoselskii, on example 1 with the
#   synthetic weight log(t-0.5), whose quadrature fails (exit 3)
#   solve on example 4 with g = ["log(u)"], which fails at the zero start
#   (exit 4)
#   constants on example 1 with the synthetic weight (t-0.5)^0.5, a negative
#   base under a fractional exponent (exit 3)
#   solve on example 4 with g = ["u^-1"], zero raised to a negative power at
#   the zero start (exit 4)
#   check --which krasnoselskii on example 1 with g = ["2", "1/(1+exp(-u))"],
#   a constant and a plateau whose best window samples tie, so that the
#   candidates' full-sort route reaches the diff
#   check --which krasnoselskii on example 1 with windows a1 = 2 and a2 = 30,
#   where the window sample leaves most candidates settled and skips their
#   polish: g = ["1 + sin(u)/3", "2 + cos(3*u)/5"], with resolved single-peak
#   and multi-peak windows, and g = a valley with a flat floor on
#   [0.99895, 1.00005], whose edges fall between two samples of each window
#   check --which krasnoselskii on example 1 with windows a1 = 2 and a2 = 30
#   and g = ["u^1.5*exp(-u)"], whose interior maximum at u = 1.5 the window
#   polish reaches through a fractional power on the scalar route
#   constants on example 1 with kernel alpha = 3, beta = 1, gamma = 4,
#   delta = 3, r0 = 0.5 and the synthetic weight 1, whose kernel diagonal
#   has its supremum inside (0, 1], at t ~ 0.726, between two samples of
#   the extremum ladder
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
doc = example_config(4)
doc["numerics"]["grid_size"] = 2**17 + 1
with open(f"{sys.argv[1]}/example-4-blocks.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc = example_config(1)
doc["weights"] = {"synthetic": "log(t-0.5)"}
with open(f"{sys.argv[1]}/log-weight.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc = example_config(4)
doc["system"] = {"n": 1, "g": ["log(u)"]}
with open(f"{sys.argv[1]}/log-g.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc = example_config(1)
doc["weights"] = {"synthetic": "(t-0.5)^0.5"}
with open(f"{sys.argv[1]}/root-weight.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc = example_config(4)
doc["system"] = {"n": 1, "g": ["u^-1"]}
with open(f"{sys.argv[1]}/inverse-g.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc = example_config(1)
doc["system"] = {"n": 2, "g": ["2", "1/(1+exp(-u))"]}
with open(f"{sys.argv[1]}/plateau-g.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc = example_config(1)
doc["windows"] = {"a1": 2, "a2": 30}
doc["system"] = {"n": 2, "g": ["1 + sin(u)/3", "2 + cos(3*u)/5"]}
with open(f"{sys.argv[1]}/peaks-g.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc["system"] = {"n": 1, "g": [
    "piecewise((u < 0.99895, 1 + (u - 0.99895)^2), (u < 1.00005, 1),"
    " (else, 1 + (u - 1.00005)^2))"
]}
with open(f"{sys.argv[1]}/plateau-edge-g.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc["system"] = {"n": 1, "g": ["u^1.5*exp(-u)"]}
with open(f"{sys.argv[1]}/power-peak-g.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
doc = example_config(1)
doc["kernel"].update(alpha=3, beta=1, gamma=4, delta=3, r0=0.5)
doc["weights"] = {"synthetic": "1"}
with open(f"{sys.argv[1]}/interior-sup.json", "w", encoding="utf-8") as f:
    json.dump(doc, f)
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
    echo "solve --config $configs/example-4-blocks.json"
    echo "solve --config $configs/example-1.json --multistart"
    echo "kernel --config $configs/example-1.json --grid 101"
    echo "kernel --config $configs/example-1.json --grid 4001"
    echo "kernel --config $configs/example-1.json --grid 5 --table"
    echo "constants --config $configs/log-weight.json"
    echo "check --config $configs/log-weight.json --which krasnoselskii"
    echo "solve --config $configs/log-g.json"
    echo "constants --config $configs/root-weight.json"
    echo "solve --config $configs/inverse-g.json"
    echo "check --config $configs/plateau-g.json --which krasnoselskii"
    echo "check --config $configs/peaks-g.json --which krasnoselskii"
    echo "check --config $configs/plateau-edge-g.json --which krasnoselskii"
    echo "check --config $configs/power-peak-g.json --which krasnoselskii"
    echo "constants --config $configs/interior-sup.json"
}

# every command's stdout, exit code and stderr under one source tree
reports() {
    local tree=$1 out=$scratch/out-$2 cmd status
    mkdir "$out"
    while read -r cmd; do
        echo "\$ annulus-radial ${cmd//$configs/CONFIGS}"
        status=0
        # shellcheck disable=SC2086  # the command is a word list
        (cd "$scratch" && PYTHONPATH="$tree/src" python3 -m annulus_radial.cli \
            ${cmd//OUT/$out} 2>"$scratch/stderr") || status=$?
        echo "exit $status"
        if [[ -s $scratch/stderr ]]; then
            echo "--- stderr"
            sed -e "s#$tree#TREE#g" -e "s#$configs#CONFIGS#g" "$scratch/stderr"
        fi
        if [[ $cmd == solve*--out* ]]; then
            echo "--- profile.csv"
            cat "$out/profile.csv" 2>/dev/null || echo "(none)"
        fi
    done < <(commands)
}

reports "$scratch/base" base > "$scratch/base.txt"
reports "$root" work > "$scratch/work.txt"
diff -u --label "$base" --label "working tree" "$scratch/base.txt" "$scratch/work.txt" || true
