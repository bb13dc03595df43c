#!/usr/bin/env bash
# Reachability check: fails on any function declared in the module's
# non-test Go files that no binary of the repository links and that
# scripts/reach.allow does not list, and on any stale allowlist entry.
# Run from anywhere:
#
#   bash scripts/reach.sh        (or: make reach)
#
# Every cmd/*, examples/*, scripts/reachlist and perfbench binary is
# built with inlining off (-gcflags=all=-l), so each function the linker
# keeps appears in the symbol table under its own name. The packages
# live under internal/, so no other module can import them: a function
# no binary links serves only its tests.
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# syms BIN PKG appends BIN's symbol names to the list, naming its main
# package by its import path PKG.
syms() {
	go tool nm "$1" | sed -E -e 's/^ *[0-9a-f]* +[A-Za-z] +//' -e "s#^main\\.#$2.#" >>"$tmp/syms"
}

: >"$tmp/syms"
for dir in cmd/* examples/* scripts/reachlist; do
	bin="$tmp/${dir//\//_}"
	go build -gcflags=all=-l -o "$bin" "./$dir"
	syms "$bin" "repro/$dir"
done
(cd perfbench && GOWORK=off go build -gcflags=all=-l -o "$tmp/perfbench" .)
syms "$tmp/perfbench" repro/perfbench

go list -f '{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}' ./... >"$tmp/pkgs"
"$tmp/scripts_reachlist" -pkgs "$tmp/pkgs" -allow scripts/reach.allow <"$tmp/syms"
