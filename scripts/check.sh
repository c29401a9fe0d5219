#!/usr/bin/env bash
# check.sh — the repo's CI gate, runnable locally. Referenced from
# README.md; run it before sending a PR.
#
#   scripts/check.sh          full gate: fmt, vet, build, race-enabled tests
#   scripts/check.sh -fast    skip the race detector (plain `go test ./...`)
#
# Tests run with -shuffle=on, so a test that depends on the order of the
# tests before it fails here; the seed is printed, and
# `go test -shuffle=<seed>` replays that order.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "-fast" ]]; then
  fast=1
fi

# gofmt -l recurses from the repo root, so every .go file is covered —
# including files in newly added directories and files excluded by build
# constraints that `go list` would skip.
echo "==> gofmt"
unformatted=$(gofmt -l .)
if [[ -n "$unformatted" ]]; then
  echo "gofmt needed on:" >&2
  echo "$unformatted" >&2
  exit 1
fi

echo "==> go vet ./..."
go vet ./...

# staticcheck runs when available (CI installs a pinned version; locally
# it is optional — `go install honnef.co/go/tools/cmd/staticcheck@2023.1.7`
# to match CI). Gated on command -v so an offline checkout still passes.
echo "==> staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "staticcheck not installed; skipped (CI runs it pinned)"
fi

echo "==> go build ./..."
go build ./...

# bench/ is its own module (the frozen benchmark BENCHMARK.json declares),
# so ./... above does not reach it. It compiles against this module's
# exported API: vet and its short tests here make an API drift that stops
# the benchmark compiling fail the gate, not the benchmark run.
# TestSelfTimes is skipped: it compares a float sum taken in map order with
# 1 exactly and fails about one run in seven at any commit; the file is
# frozen with the benchmark, so the fix belongs to a benchmark change.
echo "==> frozen benchmark module (cd bench && go vet ./... && go test -short ./...)"
(cd bench && go vet ./... && go test -short -skip '^TestSelfTimes$' ./...)

if [[ "$fast" == 1 ]]; then
  echo "==> go test -shuffle=on ./... (fast mode, no race detector)"
  go test -shuffle=on ./...
  # The single-flight tile memo, engine registry, serving layer, cluster
  # peer layer, load harness, and observation/retrain loop are the
  # concurrency-critical surface: they stay race-checked even in fast mode.
  echo "==> go test -race -shuffle=on ./internal/tile ./internal/predict ./internal/serve ./internal/cluster ./internal/loadgen ./internal/observe"
  go test -race -shuffle=on ./internal/tile ./internal/predict ./internal/serve ./internal/cluster ./internal/loadgen ./internal/observe
  # The predictor's own concurrency tests: forecasts alongside each other
  # and alongside a Calibrate that publishes a new model version. The whole
  # package under -race takes about a minute; this subset a quarter of it.
  echo "==> go test -race -shuffle=on -run 'Concurrent|Torn' ./internal/core"
  go test -race -shuffle=on -run 'Concurrent|Torn' ./internal/core
else
  echo "==> go test -race -shuffle=on ./..."
  go test -race -shuffle=on ./...

  # Every workload through the benchmark's own judge, about 25 s: a parity
  # miss, a broken precondition or a tripped client.cpu_share guard fails
  # the gate here, before the benchmark pipeline does.
  echo "==> frozen benchmark smoke (cd bench && go test -run '^TestSmoke$' ./...)"
  (cd bench && go test -count=1 -run '^TestSmoke$' ./...)

  # Kill-a-member e2e: a real three-process cluster loses a member to
  # SIGKILL mid-traffic and must fail over, evict, and readmit — the
  # self-healing contract exercised against real processes, not httptest.
  echo "==> cluster kill-a-member e2e (scripts/e2e_cluster.sh)"
  bash scripts/e2e_cluster.sh

  # Fleet-planner e2e: a /v2/plan what-if sweep fanned across a 2-member
  # self-cluster must complete with every cell evaluated exactly once and
  # a seed-stable ranking — the planner's async-job contract, end to end.
  echo "==> fleet planner e2e (scripts/plan_e2e.sh)"
  bash scripts/plan_e2e.sh
fi

# Docs gate: every versioned route the code actually serves must be
# documented in docs/API.md — adding an endpoint without documenting it
# fails CI here — and every route heading there must name a route the code
# serves, so a deleted endpoint's section fails it too. The route list is
# derived from the source, not maintained by hand: serve registers routes
# via mux.HandleFunc literals, and the cluster layer declares its
# /v2/cluster/* paths as string literals in non-test files.
echo "==> docs gate (API routes vs docs/API.md, both ways)"
missing=0
routes=$(
  {
    grep -ho 'mux.HandleFunc("/v2[^"]*"' internal/serve/http.go | sed 's/mux.HandleFunc("//; s/"$//'
    grep -rho --include='*.go' --exclude='*_test.go' '"/v[0-9]/cluster/[^"]*"' internal/cluster | tr -d '"'
  } | sort -u
)
for route in $routes; do
  if ! grep -q -- "$route" docs/API.md; then
    echo "route $route handled in the code but missing from docs/API.md" >&2
    missing=1
  fi
done
if ! grep -q -- "/metrics" docs/API.md; then
  echo "route /metrics handled in internal/serve/http.go but missing from docs/API.md" >&2
  missing=1
fi
# A heading "## GET /v2/plan/{id}" names the prefix route "/v2/plan/".
doc_routes=$(grep -E '^###? [A-Z|]+ /v[0-9]/' docs/API.md | awk '{ print $3 }' | sed 's/{[^}]*}$//' | sort -u)
for route in $doc_routes; do
  if ! grep -qxF -- "$route" <<<"$routes"; then
    echo "docs/API.md has a section for $route, which the code does not handle" >&2
    missing=1
  fi
done
# The same both ways for `neusight serve` flags: every flag literal
# (fs.<Type>("name", ...) in cmd/neusight/serve.go) needs a backticked
# entry in the first column of docs/OPERATIONS.md's flag reference table,
# and every entry there must name a flag serve defines.
echo "==> docs gate (serve flags vs docs/OPERATIONS.md)"
code_flags=$(grep -o 'fs\.[A-Za-z0-9]*("[^"]*"' cmd/neusight/serve.go | sed 's/^[^"]*"//; s/"$//' | sort -u)
doc_flags=$(
  awk '/^## Flag reference/ { on = 1; next } /^## / { on = 0 } on && /^\| `-/' docs/OPERATIONS.md |
    cut -d'|' -f2 | grep -o '`-[^`]*`' | sed 's/^`-//; s/`$//' | sort -u
)
for flag in $code_flags; do
  if ! grep -qxF -- "$flag" <<<"$doc_flags"; then
    echo "serve flag -$flag defined in cmd/neusight/serve.go but missing from docs/OPERATIONS.md's flag table" >&2
    missing=1
  fi
done
for flag in $doc_flags; do
  if ! grep -qxF -- "$flag" <<<"$code_flags"; then
    echo "docs/OPERATIONS.md's flag table names -$flag, which cmd/neusight/serve.go does not define" >&2
    missing=1
  fi
done
# And for /metrics: every metric family the code writes (a "neusight_..."
# string literal in non-test Go under internal/ and cmd/) needs a row in
# docs/OPERATIONS.md's metric reference, and every family a row there
# names must be one the code writes. Rows spell each family in full.
echo "==> docs gate (metric families vs docs/OPERATIONS.md)"
code_metrics=$(grep -rhoE --include='*.go' --exclude='*_test.go' '"neusight_[a-z0-9_]+"' internal cmd | tr -d '"' | sort -u)
doc_metrics=$(
  awk '/^## Prometheus metric reference/ { on = 1; next } /^## / { on = 0 } on && /^\| `neusight_/' docs/OPERATIONS.md |
    cut -d'|' -f2 | grep -o '`neusight_[a-z0-9_]*' | sed 's/^`//' | sort -u
)
for metric in $code_metrics; do
  if ! grep -qxF -- "$metric" <<<"$doc_metrics"; then
    echo "metric family $metric written by the code but missing from docs/OPERATIONS.md's metric reference" >&2
    missing=1
  fi
done
for metric in $doc_metrics; do
  if ! grep -qxF -- "$metric" <<<"$code_metrics"; then
    echo "docs/OPERATIONS.md's metric reference names $metric, which no non-test code writes" >&2
    missing=1
  fi
done
if [[ "$missing" != 0 ]]; then
  exit 1
fi

# Benchmark smoke run: one iteration each, so bit-rotted benchmarks (stale
# APIs, broken fixtures) fail CI without CI paying for real measurement.
# `-bench .` on internal/core includes BenchmarkPredictGraph, and 'Serve'
# on the root package the kernel and graph cases of
# BenchmarkServeThroughput; ForecastOffline is the paper's own use (build a
# Fig. 7 cell's graph, forecast it) with its allocations per forecast.
echo "==> benchmark smoke (-benchtime=1x)"
go test -run '^$' -bench . -benchtime=1x ./internal/mat ./internal/core >/dev/null
go test -run '^$' -bench 'EngineDispatch' -benchtime=1x ./internal/predict >/dev/null
go test -run '^$' -bench 'ObserveIngest' -benchtime=1x ./internal/observe >/dev/null
go test -run '^$' -bench 'Serve|ForecastOffline' -benchtime=1x . >/dev/null

# Loadgen smoke run: one short fixed-rate step against a self-served
# roofline target — exercises the whole path (CLI flags, in-process
# target, open-loop driver, JSON report) in about a second without
# measuring anything, and holds the driver's accounting to the server's:
# every success the client counted is a request /v2/stats counted.
echo "==> loadgen smoke run"
smoke_out=$(mktemp)
trap 'rm -f "$smoke_out"' EXIT
go run ./cmd/neusight loadgen -self roofline -rate 200 -duration 500ms \
  -seed 7 -out "$smoke_out" 2>/dev/null
python3 - "$smoke_out" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
if report.get("kind") != "neusight-loadgen":
    raise SystemExit(f"check.sh: smoke run report kind {report.get('kind')!r}")
run = report.get("run") or {}
if not run.get("succeeded", 0) > 0:
    raise SystemExit("check.sh: smoke run served no successful requests")
served = (run.get("server") or {}).get("requests")
if served != run["succeeded"]:
    raise SystemExit(f"check.sh: smoke run: server counted {served} requests, "
                     f"client {run['succeeded']} successes")
EOF

echo "OK"
