#!/bin/sh
# Structural lint for the staged batch pipeline (PR 5). The driver
# decomposition is load-bearing — digest goldens prove behaviour, this
# gate proves structure: every stage file exists, the driver core stays a
# core (no stage logic creeping back into driver.go), and policy knobs are
# selected through the registry, not poked directly from the CLIs.
# Run from the repository root (scripts/check.sh and CI both do).
set -eu

fail() { echo "lint: $*" >&2; status=1; }
status=0

# 1. The pipeline decomposition: one file per stage plus the shared
#    context/registry seams. A missing file means a refactor quietly
#    re-merged a stage into the monolith.
for f in pipeline.go fetch.go dedup.go prefetchplan.go residency.go \
         transfer.go replay.go registry.go; do
  [ -f "internal/uvm/$f" ] || fail "missing pipeline stage file internal/uvm/$f"
done

# 2. driver.go stays the thin core: construction, allocation API and
#    state. 500 lines is generous headroom over its current ~400; hitting
#    this bound means stage logic is accreting in the wrong file.
lines=$(wc -l < internal/uvm/driver.go)
if [ "$lines" -gt 500 ]; then
  fail "internal/uvm/driver.go is $lines lines (>500): stage logic belongs in the per-stage files"
fi

# 3. Stage entry points live in their stage files, not in driver.go, and
#    the stage graphs live in the architecture registry (arch.go) since
#    the PR-10 lift — pipeline.go only dispatches through d.arch.
for sym in 'dedupStage' 'serviceStage' 'crossBlockStage' 'replayStage' \
           'residencyStep' 'prefetchPlanStep' 'populateStep' 'transferStep' \
           'counterGateStep'; do
  if grep -q "func ($sym)" internal/uvm/driver.go 2>/dev/null; then
    fail "stage method $sym defined in driver.go; move it to its stage file"
  fi
done
[ -f internal/uvm/arch.go ] || fail "missing architecture registry internal/uvm/arch.go"
grep -q 'hostBatchStages' internal/uvm/arch.go || fail "arch.go lost the hostBatchStages stage graph"
grep -q 'hostBlockSteps' internal/uvm/arch.go || fail "arch.go lost the hostBlockSteps stage graph"
grep -q 'registerArchitecture' internal/uvm/arch.go || fail "arch.go lost registerArchitecture"

# 4. Hot-path structural guards. The engine's per-instant event
#    queue and the struct-of-arrays batch stages are load-bearing perf
#    work; these greps keep the two easiest regressions from creeping
#    back in.
#
#    4a. No non-test file under the engine or driver hot paths may
#    import container/heap — the binary heap survives only as the test
#    oracle (internal/sim/queue_test.go, the fuzz target).
for pkg in internal/sim internal/uvm; do
  for f in "$pkg"/*.go; do
    case "$f" in *_test.go) continue ;; esac
    if grep -q '"container/heap"' "$f"; then
      fail "$f imports container/heap; the heap is test-oracle-only (the engine uses its per-instant event queue)"
    fi
  done
done

#    4b. The per-batch stage files must not allocate maps: the dedup
#    rewrite replaced the per-batch map churn with sorted-key scans, and
#    a map reappearing in a stage file means the allocation diet is
#    regressing (TestBatchServiceAllocGuard would catch the count; this
#    names the culprit).
for f in internal/uvm/dedup.go internal/uvm/fetch.go internal/uvm/prefetchplan.go \
         internal/uvm/residency.go internal/uvm/transfer.go internal/uvm/replay.go; do
  if grep -qn 'make(map' "$f"; then
    fail "$f allocates a map; batch stages are struct-of-arrays (see dedup.go's sort-scan)"
  fi
done

# 5. Profiler hot-path guards (PR 9). The profiler's record path runs
#    inside the batch pipeline on every fault/batch; it must stay on the
#    allocation diet (no map allocation — heat lives in a BlockDir) and
#    in virtual time (no wall-clock reads in sim-time attribution).
if grep -qn 'make(map' internal/obs/profiler.go; then
  fail "internal/obs/profiler.go allocates a map; the record path is map-free (BlockDir + pooled slices)"
fi
if grep -qn 'time\.Now' internal/obs/profiler.go; then
  fail "internal/obs/profiler.go reads wall-clock time; attribution is sim-time only"
fi
for f in internal/uvm/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -qn 'time\.Now' "$f"; then
    fail "$f reads wall-clock time inside the sim-time driver"
  fi
done

# 6. Stage implementations stay architecture-agnostic (PR 10): all
#    architecture dispatch goes through the registry's stage/block-step
#    lists, so no stage file may branch on the selected architecture.
#    (arch.go itself declares the graphs; driver.go applies the payload
#    at construction — both are exempt.)
for f in internal/uvm/pipeline.go internal/uvm/fetch.go internal/uvm/dedup.go \
         internal/uvm/prefetchplan.go internal/uvm/residency.go \
         internal/uvm/transfer.go internal/uvm/replay.go; do
  if grep -qn 'cfg\.Architecture\|\.arch\.info\.Name\|Architecture ==' "$f"; then
    fail "$f branches on the selected architecture; stages must stay architecture-agnostic (dispatch via arch.go)"
  fi
done

# 7. CLIs select policies by registry name (SystemConfig.Policies), never
#    by writing the eviction knob directly — direct writes bypass the
#    unknown-name validation and the -list-policies contract. Since the
#    shared flag block (uvm.RegisterPolicyFlags) they must also not
#    re-declare the policy flags locally, so names and help text cannot
#    drift between tools.
for cli in uvmsim uvmsweep faultviz paperfigs sweepd; do
  if grep -qn 'Driver\.Eviction[[:space:]]*=' "cmd/$cli/main.go"; then
    fail "cmd/$cli sets Driver.Eviction directly; route it through Policies (the registry)"
  fi
  if grep -qn 'flag\.String("evict"\|flag\.String("arch"' "cmd/$cli/main.go"; then
    fail "cmd/$cli declares its own policy flags; use uvm.RegisterPolicyFlags / RegisterPolicyListFlags"
  fi
done

# 8. One simulator wiring for 1..N devices. Every driver holds an arbiter
#    (a private one until SetArbiter shares it), so the driver has no
#    "no arbiter" path; the root package builds drivers in one place; and
#    no second simulator type may grow back beside Simulator.
for f in internal/uvm/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -qn 'arbiter != nil' "$f"; then
    fail "$f branches on a nil arbiter; every driver holds one (NewDriver gives a private one)"
  fi
done
n=0
for f in *.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -q 'uvm\.NewDriver(' "$f"; then n=$((n + 1)); fi
done
if [ "$n" -ne 1 ]; then
  fail "uvm.NewDriver( appears in $n non-test root files, want exactly 1 (the one Simulator wiring)"
fi
if grep -rqn --include='*.go' --exclude-dir=.bench_build 'type MultiSimulator' .; then
  fail "type MultiSimulator is back; Simulator serves 1..N devices"
fi

# 9. Allocation-diet guards for the two largest former allocators. Warp
#    programs carve every op's page list out of one per-block buffer
#    (pageBuf in internal/workloads/workload.go), so a fresh
#    gpu.PageRange slice per op must not come back in the builders (the
#    test oracle keeps the old builders). The host radix tree stores
#    uint64 values unboxed in typed nodes; an any-typed slot array would
#    box every DMA address and allocate on every insert.
for f in internal/workloads/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -qn 'gpu\.PageRange(' "$f"; then
    fail "$f builds page lists with gpu.PageRange; carve them from the block's pageBuf"
  fi
done
if grep -qnE '\](any|interface[[:space:]]*\{[[:space:]]*\})' internal/hostos/radix.go; then
  fail "internal/hostos/radix.go has any-typed slots; radix nodes hold typed children and unboxed values"
fi

# 10. One workload catalogue and one sweep-point runner. Every CLI
#     resolves workload names through workloads.ByName, so no cmd/*/main.go
#     may switch on a catalogue name itself; and uvmsweep runs each point
#     through sweepd.SimulatePoint, so it must not build its own simulator.
names=$(sed -n 's/^[[:space:]]*case "\([a-z-]*\)":.*/\1/p' internal/workloads/catalog.go | paste -sd'|' -)
[ -n "$names" ] || fail "no workload names found in internal/workloads/catalog.go"
for f in cmd/*/main.go; do
  if grep -qnE "case .*\"($names)\"" "$f"; then
    fail "$f switches on a workload name; resolve workloads through workloads.ByName"
  fi
done
for f in cmd/uvmsweep/*.go; do
  case "$f" in *_test.go) continue ;; esac
  if grep -qn 'guvm\.NewSimulator' "$f"; then
    fail "$f calls guvm.NewSimulator; sweep points run through sweepd.SimulatePoint"
  fi
done

if [ "$status" -ne 0 ]; then
  exit 1
fi
echo "lint: pipeline structure OK"
