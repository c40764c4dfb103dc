#!/bin/sh
# loc: print the number of lines of non-test Go source outside vendor/,
# perfbench/ and every testdata/ directory — the size figure a change that
# deletes code reports before and after.
#
# Run from the repository root: ./scripts/loc.sh
set -eu

find . -name '*.go' ! -name '*_test.go' \
	! -path './vendor/*' ! -path './perfbench/*' ! -path '*/testdata/*' \
	-exec cat {} + | wc -l | tr -d ' '
