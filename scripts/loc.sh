#!/usr/bin/env bash
# Non-test Go lines (wc -l) per internal/* package, and the total over every
# non-test .go file in the repository outside bench/ (the frozen benchmark
# module). The ROADMAP's "non-test LOC goes down" gates read this table.
#
# Usage: scripts/loc.sh [repo-root]   (default: this checkout)
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

count() { # count DIR... -> lines of non-test .go files under them
    find "$@" -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l
}

printf '%-24s %8s\n' package lines
for dir in internal/*/; do
    printf '%-24s %8d\n' "${dir%/}" "$(count "$dir")"
done
printf '%-24s %8d\n' total "$(count .)"
