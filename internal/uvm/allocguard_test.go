package uvm

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBatchServiceAllocGuard pins the hot-path allocation diet: with no
// batch observers attached (the default), BenchmarkBatchService must
// allocate what the BENCH_pr15.json freeze recorded — the level after
// the per-instant event queue, the struct-of-arrays dedup stage, the
// pooled GPU event path, the per-block page buffers of the warp
// programs, the reused batch-fault buffer and the unboxed radix tree. A
// regression here means map churn or per-event allocation leaked back
// into the batch-service path.
func TestBatchServiceAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs the batch-service benchmark; skipped in -short")
	}
	raw, err := os.ReadFile("../../BENCH_pr15.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Measured map[string]struct {
			AllocsPerOp float64 `json:"allocs_per_op"`
		} `json:"measured"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	baseline := doc.Measured["BenchmarkBatchService"].AllocsPerOp
	if baseline <= 0 {
		t.Fatal("BENCH_pr15.json has no measured BenchmarkBatchService allocs_per_op")
	}

	res := testing.Benchmark(BenchmarkBatchService)
	got := float64(res.AllocsPerOp())
	// The pipeline is deterministic, so allocs/op barely moves between
	// runs; 5% headroom absorbs map-growth jitter across Go versions.
	if got > baseline*1.05 {
		t.Fatalf("disabled-observability allocs/op regressed: %.0f, baseline %.0f (+%.1f%%)",
			got, baseline, 100*(got/baseline-1))
	}
	// Hard ceiling: the pre-diet PR-5 freeze. Drifting anywhere near it
	// means the struct-of-arrays work has been undone wholesale, not
	// jittered — fail regardless of what the frozen file says.
	const pr5AbsolutePin = 39404
	if got >= pr5AbsolutePin {
		t.Fatalf("allocs/op %.0f reached the pre-diet PR-5 pin %d", got, pr5AbsolutePin)
	}
	t.Logf("allocs/op %.0f vs baseline %.0f (absolute pin %d)", got, baseline, pr5AbsolutePin)
}
