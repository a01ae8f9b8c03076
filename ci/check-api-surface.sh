#!/bin/sh
# Golden check of the public busytime API surface.
#
# The committed ci/api-surface.txt is the symbol listing of `go doc -all .`
# (exported funcs, types, consts, vars and methods, one line each), followed
# by the methods of every type alias. `go doc` prints an alias such as
# `type Schedule = core.Schedule` without the methods a caller can use
# through it, so the script appends the `func (` lines of the aliased type's
# own `go doc` entry; a method dropped from an internal package then shows
# here too. Any change to the public surface — additions included — must be
# deliberate: regenerate with `ci/check-api-surface.sh -u`, review the diff,
# and commit it alongside the change. CI fails on undocumented drift.
set -eu
cd "$(dirname "$0")/.."
golden=ci/api-surface.txt
current=$(mktemp)
trap 'rm -f "$current"' EXIT
doc=$(go doc -all .)
{
    printf '%s\n' "$doc" | grep -E '^(func|type|const|var)'
    printf '%s\n' "$doc" |
        sed -n 's/^type [A-Za-z0-9_]* = \([a-z0-9_]*\)\.\([A-Za-z0-9_]*\)$/\1 \2/p' |
        while read -r pkg typ; do
            methods=$(go doc "busytime/internal/$pkg" "$typ")
            printf '%s\n' "$methods" | grep -E '^func \(' || true
        done
} > "$current"
if [ "${1:-}" = "-u" ]; then
    cp "$current" "$golden"
    echo "updated $golden"
    exit 0
fi
if ! diff -u "$golden" "$current"; then
    echo >&2
    echo "public API surface drifted from $golden." >&2
    echo "If the change is intentional, run ci/check-api-surface.sh -u and commit the result." >&2
    exit 1
fi
echo "public API surface matches $golden"
