#!/usr/bin/env bash
# Rewrites the CLI goldens in this directory from a `cdt` binary:
#
#   tests/fixtures/cli/regen.sh [CDT]
#
# CDT defaults to `${CARGO_TARGET_DIR:-target}/release/cdt` at the repo
# root. Every line of commands.txt runs in this directory, so a `--csv
# DIR` command rewrites DIR here. A change that rewrites a golden names
# the file and the reason in CHANGES.md.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../../.." && pwd)"
cdt="${1:-${CARGO_TARGET_DIR:-$root/target}/release/cdt}"
cdt="$(cd "$(dirname "$cdt")" && pwd)/$(basename "$cdt")"
cd "$here"
grep -v -e '^#' -e '^$' commands.txt | while read -r golden args; do
    if [[ " $args " =~ \ --csv\ ([^ ]+)\  ]]; then
        csv="${BASH_REMATCH[1]}"
        # A csv directory is a plain name inside this directory.
        if [[ ! "$csv" =~ ^[A-Za-z0-9_-]+$ ]]; then
            echo "refusing --csv $csv: not a plain directory name" >&2
            exit 1
        fi
        rm -rf "$csv"
    fi
    # shellcheck disable=SC2086  # $args is a deliberate word-split argument list
    "$cdt" $args | sed -f mask.sed > "$golden"
    echo "wrote $golden: cdt $args"
done
