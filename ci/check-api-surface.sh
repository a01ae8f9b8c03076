#!/bin/sh
# Golden check of the public busytime API surface.
#
# The committed ci/api-surface.txt is the symbol listing of `go doc -all .`
# (exported funcs, types, consts, vars and methods, one line each), followed
# by the methods of every type alias, then by the methods of every internal
# type those methods hand out. `go doc` prints an alias such as
# `type Schedule = core.Schedule` without the methods a caller can use
# through it, so the script appends the `func (` lines of the aliased type's
# own `go doc` entry. Those lines name further internal types a caller
# reaches (`Instance.TimeAxis() *Axis`, `Instance.Set() interval.Set`); each
# exported one that is not itself aliased gets its `func (` lines appended
# too, an unqualified name belonging to the package whose entry printed it.
# A method dropped from an internal package then shows here. Any change to
# the public surface — additions included — must be deliberate: regenerate
# with `ci/check-api-surface.sh -u`, review the diff, and commit it
# alongside the change. CI fails on undocumented drift.
set -eu
cd "$(dirname "$0")/.."
golden=ci/api-surface.txt
current=$(mktemp)
trap 'rm -f "$current"' EXIT
doc=$(go doc -all .)
aliases=$(printf '%s\n' "$doc" |
    sed -n 's/^type [A-Za-z0-9_]* = \([a-z0-9_]*\)\.\([A-Za-z0-9_]*\)$/\1 \2/p')
# methods prints the `func (` lines of internal type $2 of package $1.
methods() {
    go doc "busytime/internal/$1" "$2" | grep -E '^func \(' || true
}
# Each aliased method line, prefixed by the package that printed it.
aliased=$(printf '%s\n' "$aliases" | while read -r pkg typ; do
    methods "$pkg" "$typ" | sed "s/^/$pkg /"
done)
{
    printf '%s\n' "$doc" | grep -E '^(func|type|const|var)'
    printf '%s\n' "$aliased" | cut -d' ' -f2-
    printf '%s\n' "$aliased" | while read -r pkg sig; do
        printf '%s\n' "$sig" | sed -E 's/^func \([^)]*\) [A-Za-z0-9_]+//' |
            grep -oE '[A-Za-z0-9_.]+' |
            grep -E '^([a-z0-9_]+\.)?[A-Z][A-Za-z0-9_]*$' |
            sed "/\./!s/^/$pkg./" || true
    done | sort -u | tr . ' ' | while read -r pkg typ; do
        if [ -d "internal/$pkg" ] &&
            ! printf '%s\n' "$aliases" | grep -qx "$pkg $typ"; then
            methods "$pkg" "$typ"
        fi
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
