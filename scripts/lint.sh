#!/usr/bin/env bash
# Static-analysis gate: gofmt, go vet, and the adasum-vet suite
# (internal/analysis) over the whole module. go vet and adasum-vet both
# cover the full build-configuration matrix — default, noasm, GOARCH=386
# (adasum-vet runs its three legs concurrently inside one process) — so
# tag-gated fallback code is held to the same determinism/noalloc/
# ownership invariants as the native build, and so stale //adasum:
# suppressions (consumed under no configuration) are caught.
#
# Usage: scripts/lint.sh [package patterns...]   (default: whole module)
# Set ADASUM_VET_JSON=<path> to also write the findings as a JSON
# artifact (CI uploads this on failure).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
out="$(gofmt -l .)"
if [ -n "$out" ]; then
    echo "files need gofmt:"
    echo "$out"
    exit 1
fi
echo "ok"

# asmdecl (the assembly kernels against their Go declarations) only has
# something to check in the default configuration; the other two vet the
# pure-Go twins that replace the assembly there.
echo "== go vet (default, noasm, 386) =="
go vet ./...
go vet -tags noasm ./...
GOARCH=386 go vet ./...
echo "ok"

echo "== adasum-vet (default + noasm + 386, concurrent) =="
if [ -n "${ADASUM_VET_JSON:-}" ]; then
    rc=0
    go run ./cmd/adasum-vet -json "$@" > "$ADASUM_VET_JSON" || rc=$?
    if [ "$rc" -ne 0 ]; then
        # Re-render the findings human-readably (call paths included)
        # for the terminal / step summary, then fail.
        go run ./cmd/adasum-vet "$@" || true
        exit "$rc"
    fi
else
    go run ./cmd/adasum-vet "$@"
fi
echo "ok"
