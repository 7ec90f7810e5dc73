#!/bin/sh
# Hot-path microbenchmark harness. Runs the hot-path benchmarks —
# BenchmarkBatchService (the driver's whole fault-servicing pipeline,
# internal/uvm), BenchmarkBatchServiceObserved (the same pipeline with a
# batch observer attached), BenchmarkBatchServiceProfiled (with the
# fault-lifecycle profiler's full record path attached; budget ≤10% over
# the base pipeline), BenchmarkLargeWorkingSet (a 4 GB sparse
# working set stressing the block directories), BenchmarkEngineDispatch
# (the event loop with 64 events at distinct times, internal/sim) and
# BenchmarkEngineDispatchBurst (the event loop under the simulator's
# measured mix: ~600 pending events over ~14 instants) — plus two
# end-to-end experiment benchmarks from the root package,
# BenchmarkTable2PerSMStats and BenchmarkFig09BatchSizeSweep (one full
# regeneration of that artifact per op, so their allocs/op track the
# whole simulator's allocation profile) — with -benchmem and writes a
# JSON report holding the measured ns/op, B/op and allocs/op next to the
# previous PR's frozen numbers.
#
# The baseline is READ FROM THE FROZEN FILE, not hard-coded: a PR that
# forgets to freeze its numbers breaks the next PR's bench run instead
# of silently comparing against stale constants (which is how the
# trajectory went dark between PR 5 and PR 8).
#
# Usage: scripts/bench.sh [-quick] [-out BENCH_prN.json] [-baseline FILE]
#   -quick     CI smoke mode: one benchmark iteration each, just enough to
#              prove the benchmarks run and the JSON pipeline works.
#   -out       report file; its BENCH_prN.json name sets the "pr" field
#              (null for any other name). Default: one past the
#              highest-numbered BENCH_prN.json in the working directory.
#   -baseline  frozen file to compare against. Default: the
#              highest-numbered BENCH_prN.json below the output's N.
# Run it from the repository root.
set -eu

out=
baseline=
benchtime=2s
while [ $# -gt 0 ]; do
  case "$1" in
    -quick) benchtime=1x ;;
    -out) shift; out=$1 ;;
    -baseline) shift; baseline=$1 ;;
    *) echo "usage: scripts/bench.sh [-quick] [-out FILE] [-baseline FILE]" >&2; exit 2 ;;
  esac
  shift
done

# prnum FILE prints N for a file named BENCH_prN.json, nothing otherwise.
prnum() {
  basename "$1" | sed -n 's/^BENCH_pr\([0-9][0-9]*\)\.json$/\1/p'
}

# The frozen trajectory, ascending by PR number.
frozen=$(for f in BENCH_pr*.json; do if [ -f "$f" ]; then prnum "$f"; fi; done | sort -n)
if [ -z "$out" ]; then
  last=$(echo "$frozen" | tail -n 1)
  out=BENCH_pr$(( ${last:-0} + 1 )).json
fi
pr=$(prnum "$out")
if [ -z "$baseline" ]; then
  below=$frozen
  if [ -n "$pr" ]; then
    below=$(echo "$frozen" | awk -v n="$pr" '$1 < n')
  fi
  n=$(echo "$below" | tail -n 1)
  if [ -z "$n" ]; then
    echo "bench: no frozen BENCH_prN.json below $out to compare against" >&2
    exit 1
  fi
  baseline=BENCH_pr$n.json
fi

if [ ! -f "$baseline" ]; then
  echo "bench: baseline file $baseline not found" >&2
  echo "bench: every bench run compares against the previous PR's frozen trajectory;" >&2
  echo "bench: restore the frozen JSON or point -baseline at it" >&2
  exit 1
fi

# Pull the baseline's measured section (the file is machine-written by
# this script, so the two-space indentation is stable).
base=$(sed -n '/^  "measured": {$/,/^  }$/p' "$baseline" | sed '1d;$d')
if [ -z "$base" ]; then
  echo "bench: no measured section found in $baseline; refusing to compare against nothing" >&2
  exit 1
fi

raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

go test -run '^$' -bench 'BenchmarkBatchService$' -benchmem -benchtime "$benchtime" ./internal/uvm | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkBatchServiceObserved$' -benchmem -benchtime "$benchtime" ./internal/uvm | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkBatchServiceProfiled$' -benchmem -benchtime "$benchtime" ./internal/uvm | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkLargeWorkingSet$' -benchmem -benchtime "$benchtime" ./internal/uvm | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkEngineDispatch$' -benchmem -benchtime "$benchtime" ./internal/sim | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkEngineDispatchBurst$' -benchmem -benchtime "$benchtime" ./internal/sim | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkTable2PerSMStats$' -benchmem -benchtime "$benchtime" . | tee -a "$raw"
go test -run '^$' -bench 'BenchmarkFig09BatchSizeSweep$' -benchmem -benchtime "$benchtime" . | tee -a "$raw"

# Fold "BenchmarkName[-P] N ns/op B/op allocs/op" lines into JSON fields,
# pairing them with the baseline measurements read above.
awk -v quick="$benchtime" -v pr="${pr:-null}" -v basefile="$baseline" -v base="$base" '
  /^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    measured[name] = sprintf("{\"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", $3, $5, $7)
    order[n++] = name
  }
  END {
    printf "{\n  \"pr\": %s,\n  \"benchtime\": \"%s\",\n", pr, quick
    printf "  \"baseline_file\": \"%s\",\n", basefile
    printf "  \"baseline\": {\n%s\n  },\n", base
    printf "  \"measured\": {\n"
    for (i = 0; i < n; i++) {
      printf "    \"%s\": %s%s\n", order[i], measured[order[i]], (i < n-1 ? "," : "")
    }
    printf "  }\n}\n"
  }
' "$raw" > "$out"
echo "wrote $out (baseline: $baseline)"
