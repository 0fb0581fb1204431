#!/usr/bin/env bash
# Rewrites the CLI goldens in this directory from a `cdt` binary:
#
#   tests/fixtures/cli/regen.sh [CDT]
#
# CDT defaults to `${CARGO_TARGET_DIR:-target}/release/cdt` at the repo
# root. Every line of commands.txt runs in a scratch working directory
# (one per line, or one per scene); its masked stdout becomes GOLDEN, and
# every file it creates or changes there becomes, masked, a file under
# GOLDEN without its `.txt`. A change that rewrites a golden names the
# file and the reason in CHANGES.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../../.." && pwd)"
cdt="${1:-${CARGO_TARGET_DIR:-$root/target}/release/cdt}"
cdt="$(cd "$(dirname "$cdt")" && pwd)/$(basename "$cdt")"
scratch="$(mktemp -d)"
trap 'rm -rf "$scratch"' EXIT
line=0
grep -v -e '^#' -e '^$' "$here/commands.txt" | while read -r golden args; do
    line=$((line + 1))
    if [[ "$golden" == */* ]]; then
        work="$scratch/scene/${golden%%/*}"
    else
        work="$scratch/line$line"
    fi
    mkdir -p "$work"
    rm -rf "$scratch/before"
    cp -a "$work" "$scratch/before"
    mkdir -p "$(dirname "$here/$golden")"
    # shellcheck disable=SC2086  # $args is a deliberate word-split argument list
    (cd "$work" && "$cdt" $args) | sed -f "$here/mask.sed" > "$here/$golden"
    files="$here/${golden%.txt}"
    rm -rf "$files"
    (cd "$work" && find . -type f | sort) | while read -r file; do
        if ! cmp -s "$work/$file" "$scratch/before/$file"; then
            mkdir -p "$(dirname "$files/$file")"
            sed -f "$here/mask.sed" "$work/$file" > "$files/$file"
        fi
    done
    echo "wrote $golden: cdt $args"
done
