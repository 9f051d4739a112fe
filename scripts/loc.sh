#!/usr/bin/env bash
# Non-test Rust lines per crate.
#
# A file's non-test lines are all of its lines before its first
# `#[cfg(test)]` (blank and comment lines included), or all of them when
# it has none. Files under tests/, benches/, examples/ and target/ are
# skipped. The crates are every directory under crates/, the umbrella
# package's src/ (mikpoly-suite) and perfbench; vendor/ is not counted.
#
# Usage: scripts/loc.sh [CHECKOUT]
#   CHECKOUT defaults to the checkout this script lives in; point it at a
#   second checkout (e.g. an exported parent commit) to compare counts.
set -euo pipefail
root="${1:-$(dirname "$0")/..}"
cd "$root"

count() {
  find "$@" -name '*.rs' \
    -not -path '*/tests/*' -not -path '*/benches/*' \
    -not -path '*/examples/*' -not -path '*/target/*' \
    -exec awk '/^[ \t]*#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' {} + |
    awk '{ sum += $1 } END { print sum + 0 }'
}

total=0
report() {
  local lines
  lines="$(count "${@:2}")"
  printf '%-20s %8d\n' "$1" "$lines"
  total=$((total + lines))
}

printf '%-20s %8s\n' crate lines
for dir in crates/*/; do
  report "$(basename "$dir")" "$dir"
done
report mikpoly-suite src
report perfbench perfbench
printf '%-20s %8d\n' total "$total"
