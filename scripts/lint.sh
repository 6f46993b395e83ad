#!/usr/bin/env bash
# lint.sh — build the project multichecker and run the invariant suite
# (DESIGN.md §7) plus gofmt over the tree. CI runs this as the Lint
# step; run it locally before sending a PR.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== building cmd/vettool"
go build -o "$tmp/vettool" ./cmd/vettool

echo "== go vet (standard analyzers)"
go vet ./...

echo "== go vet -vettool (mapfloatsum, nodeterm, nakedgo, deadlineio, errclass, metriclint)"
# go vet analyzes the test variant of every package, so _test.go files
# are under the same rules as production code. Diagnostics are also
# collected as JSONL (one object per finding) for the CI artifact; set
# LINT_JSON to keep the file, otherwise it lives in the script tempdir.
export ETA_LINT_JSON="${LINT_JSON:-$tmp/lint.json}"
: > "$ETA_LINT_JSON"
go vet -vettool="$tmp/vettool" ./...
echo "   diagnostics (JSONL): $ETA_LINT_JSON"

echo "== lint:allow justification audit"
# Every suppression must record why it is sound after the analyzer
# list; a bare //lint:allow silences a finding without leaving the
# reviewer anything to check. Fixtures under testdata are exempt (they
# exercise the directive itself), and .bench_build is skipped as go vet
# skips it: it holds build output and the base revision scripts/ab.sh
# checks out.
bare_allows="$(grep -rn --include='*.go' --exclude-dir=testdata --exclude-dir=.git \
    --exclude-dir=.bench_build -E '//lint:allow[[:space:]]+[a-z0-9_,]+[[:space:]]*$' . || true)"
if [ -n "$bare_allows" ]; then
    echo "//lint:allow without a trailing justification:" >&2
    echo "$bare_allows" >&2
    exit 1
fi

echo "== obs dependency audit (stdlib only)"
# The telemetry package must stay dependency-free so every layer can
# import it without cycles; fail if it grows a non-stdlib dependency.
bad_deps="$(go list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./internal/obs \
    | grep -v '^$' | grep -v '^github.com/didclab/eta/internal/obs$' || true)"
if [ -n "$bad_deps" ]; then
    echo "internal/obs must only depend on the stdlib, found:" >&2
    echo "$bad_deps" >&2
    exit 1
fi

echo "== span dependency audit (stdlib + internal/obs only)"
# The tracing layer inherits the obs rules: spans ride the obs event
# stream and registry, and nothing else — so every layer (chaos
# included) can adopt tracing without new edges.
bad_deps="$(go list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./internal/obs/span \
    | grep -v '^$' \
    | grep -v '^github.com/didclab/eta/internal/obs$' \
    | grep -v '^github.com/didclab/eta/internal/obs/span$' || true)"
if [ -n "$bad_deps" ]; then
    echo "internal/obs/span must only depend on the stdlib and internal/obs, found:" >&2
    echo "$bad_deps" >&2
    exit 1
fi

echo "== chaos dependency audit (stdlib + obs/span only)"
# The fault-injection package must stay import-light so any test layer
# can wrap a connection in it without dragging in the transfer stack.
bad_deps="$(go list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./internal/chaos \
    | grep -v '^$' \
    | grep -v '^github.com/didclab/eta/internal/chaos$' \
    | grep -v '^github.com/didclab/eta/internal/obs$' \
    | grep -v '^github.com/didclab/eta/internal/obs/span$' || true)"
if [ -n "$bad_deps" ]; then
    echo "internal/chaos must only depend on the stdlib, internal/obs and internal/obs/span, found:" >&2
    echo "$bad_deps" >&2
    exit 1
fi

echo "== crc32c dependency audit (stdlib only)"
# Every layer that checksums bytes imports the CRC package, so it must
# import nothing first-party itself.
bad_deps="$(go list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./internal/crc32c \
    | grep -v '^$' | grep -v '^github.com/didclab/eta/internal/crc32c$' || true)"
if [ -n "$bad_deps" ]; then
    echo "internal/crc32c must only depend on the stdlib, found:" >&2
    echo "$bad_deps" >&2
    exit 1
fi

echo "== proto dependency audit (stdlib + first-party allowlist)"
# The data plane must stay stdlib-plus-first-party: its hot paths lean
# on exact stdlib behaviour (net.Buffers writev, sendfile, hash/crc32)
# and a third-party dependency creeping in here would be the first place
# supply-chain risk meets every byte transferred. The allowlist is the
# current closure; extending it is a reviewed decision, not an accident.
proto_allow='^github.com/didclab/eta/internal/(proto|crc32c|obs|obs/span|units|dataset|transfer|endsys|netem|power|netpower|testbed)$'
bad_deps="$(go list -deps -f '{{if not .Standard}}{{.ImportPath}}{{end}}' ./internal/proto \
    | grep -v '^$' | grep -Ev "$proto_allow" || true)"
if [ -n "$bad_deps" ]; then
    echo "internal/proto must only depend on the stdlib and allow-listed first-party packages, found:" >&2
    echo "$bad_deps" >&2
    exit 1
fi

echo "== gofmt"
# testdata fixtures are excluded: they are analyzer inputs, not code.
# .bench_build is excluded for the reason the allow audit gives.
unformatted="$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.git/*' \
    -not -path './.bench_build/*' -print0 | xargs -0 gofmt -l)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "lint OK"
