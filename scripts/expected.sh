#!/usr/bin/env bash
# Committed outputs of every paper regenerator, gated against drift.
#
#   scripts/expected.sh           # diff each output against crates/bench/expected/
#   scripts/expected.sh --write   # regenerate crates/bench/expected/
#
# Every output here is deterministic (the simulator is seeded and wall
# times go to stderr), so a diff is a moved answer, never noise. Gated:
# the stdout of the 11 regenerator binaries, the stderr tuning log of
# `autotune` for the README's commands and the deadline questions, and
# the stdout of the `whatif_new_machine` and `layout_comparison`
# examples. A change that moves any of them regenerates the files and
# says in CHANGES.md which lines moved.

set -euo pipefail
cd "$(dirname "$0")/.."

write=0
[[ "${1:-}" == "--write" ]] && write=1
expected=crates/bench/expected
bin=target/release

cargo build --release -q -p hslb-bench
cargo build --release -q --example whatif_new_machine --example layout_comparison

# `autotune` argument lists whose stderr log is gated.
autotune_runs=(
    "--resolution 1deg --nodes 128 --faults 7:0.25"
    "--resolution 8th --nodes 32768 --free-ocean --deadline 1500"
    "--resolution 8th --nodes 8192 --deadline 4000"
    "--resolution 1deg --nodes 2048 --deadline 100"
    "--resolution 8th --nodes 8192 --deadline 1500"
)

autotune_logs() {
    for args in "${autotune_runs[@]}"; do
        echo "\$ autotune $args"
        # shellcheck disable=SC2086 # word-split the argument list
        "$bin/autotune" $args 2>&1 >/dev/null
    done
}

scratch="$(mktemp -d /tmp/hslb_expected.XXXXXX)"
trap 'rm -rf "$scratch"' EXIT
drifted=()

# gate NAME COMMAND...: COMMAND's stdout against $expected/NAME.txt. Its
# stderr (wall times, progress) is shown only when it fails.
gate() {
    local name="$1"
    shift
    if ! "$@" > "$scratch/$name.txt" 2> "$scratch/$name.err"; then
        cat "$scratch/$name.err" >&2
        echo "$name failed" >&2
        exit 1
    fi
    if [[ $write -eq 1 ]]; then
        cp "$scratch/$name.txt" "$expected/$name.txt"
    elif ! diff "$expected/$name.txt" "$scratch/$name.txt"; then
        drifted+=("$name")
    fi
}

for regen in ablation_algorithms ablation_objectives ablation_points ablation_sos \
    ablation_tsync fig2 fig3 fig4 solver_claim table3 audit-instances; do
    gate "$regen" "$bin/$regen"
done
gate autotune autotune_logs
gate example_whatif_new_machine "$bin/examples/whatif_new_machine"
gate example_layout_comparison "$bin/examples/layout_comparison"

if [[ ${#drifted[@]} -gt 0 ]]; then
    echo "output drifted from $expected/: ${drifted[*]} (regenerate with scripts/expected.sh --write)" >&2
    exit 1
fi
[[ $write -eq 1 ]] && echo "wrote $expected/" || echo "all gated outputs match $expected/"
