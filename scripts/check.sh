#!/bin/sh
# check.sh - the repo's pre-merge gate: formatting, vet (go vet plus
# the slpmtvet analyzer suite), build, full test suite, race-detector
# passes, a persist-order sanitizer replay of a 2-core run, the
# perf-regression baselines (every simulated metric byte-identical) and
# a one-iteration smoke run of the micro-benchmarks.
#
# Usage: scripts/check.sh   (or: make check)
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== slpmtvet (determinism / noalloc / trace coverage) =="
go run ./cmd/slpmtvet

echo "== go build =="
go build ./...

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race . ./internal/bench/ ./internal/machine/ ./internal/trace/...
go test -race ./internal/experiments/ \
	./internal/recovery/ -run 'Parallel|ForEach|Grid|RunAll|Collector|Smoke'

echo "== persist-order sanitizer =="
go run ./cmd/slpmtbench -workload hashtable -cores 2 -n 300 -value 64 -sanitize

echo "== trace stream + critical path (binlog round trip, streamed sanitizer, conservation) =="
# One streamed 2-core run: the binlog must read back every written event
# (closed, untorn), replay clean through the sanitizer, and give the
# same summary, WPQ series, sanitizer report and critical-path report
# as a re-run on an in-memory ring; path length == makespan.
go run ./cmd/slpmtbench -workload hashtable -cores 2 -n 300 -value 64 \
	-trace-stream stream-out -stream-check -sanitize -critpath -hotlines 10

echo "== baselines (make compare; every simulated metric byte-identical) =="
# make compare fails on drift past its tolerance; this gate also fails
# on drift within it. Simulated results are exactly deterministic, so
# any drift is a model change, and it must come with refreshed
# baselines (make baseline).
if ! compare_out=$(make --no-print-directory compare 2>&1); then
	echo "$compare_out" >&2
	exit 1
fi
echo "$compare_out" | grep -E '^(PASS|FAIL) '
if echo "$compare_out" | grep -Eq ' [1-9][0-9]* drifted'; then
	echo "simulated metrics drifted from baselines/: refresh them with make baseline if the change is intended" >&2
	exit 1
fi

echo "== micro-benchmarks (one iteration each) =="
go test -run '^$' -bench=Micro -benchtime=1x ./internal/engine/ ./internal/pmem/ ./internal/machine/ ./internal/cache/

echo "ALL CHECKS PASSED"
