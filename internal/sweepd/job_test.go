package sweepd

import (
	"strings"
	"testing"
)

// TestPointsGridOrder pins the expansion: the legacy "on" alias resolves
// to the tree prefetcher, and the architecture is the innermost
// dimension of the batches x caps x prefetch x evict x sizing x arch
// order.
func TestPointsGridOrder(t *testing.T) {
	pts, err := JobSpec{
		Workload: "stream", MB: 1,
		Batches:  []int{128, 256},
		Prefetch: []string{"on", "off"},
		Evict:    []string{"lru"},
		Arch:     []string{"host-driven", "gpu-driven"},
	}.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 8 {
		t.Fatalf("got %d points, want 8 (2 batches x 2 prefetch x 2 arch)", len(pts))
	}
	if pts[0].Prefetch != "tree" {
		t.Fatalf("alias 'on' not normalized to tree: %+v", pts[0])
	}
	if pts[0].Arch != "host-driven" || pts[1].Arch != "gpu-driven" || pts[0].Prefetch != pts[1].Prefetch {
		t.Fatalf("architecture is not the innermost dimension: %+v", pts[:2])
	}
	if pts[2].Prefetch != "off" || pts[3].BatchSize != 128 || pts[4].BatchSize != 256 {
		t.Fatalf("grid order wrong: %+v", pts)
	}
}

// TestPointsRejectsBadSpec: an unknown name is rejected with the valid
// options, and a size the workload cannot run with is rejected before
// any simulation.
func TestPointsRejectsBadSpec(t *testing.T) {
	for _, c := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Workload: "stream", Arch: []string{"warp-speed"}}, "host-driven, gpu-driven, access-counter"},
		{JobSpec{Workload: "stream", Evict: []string{"clock"}}, "lru, fifo, random, lfu"},
		{JobSpec{Workload: "nope"}, "gauss-seidel"},
		{JobSpec{Workload: "sgemm", N: 1000}, "multiple of the 256"},
		{JobSpec{Workload: "dgemm", N: -256}, "n > 0"},
		{JobSpec{Workload: "spmv", N: -1}, "n > 0"},
		{JobSpec{Workload: "stream", CapsMB: []int{0}}, "capacity"},
	} {
		if _, err := c.spec.Points(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: err = %v, want it to mention %q", c.spec, err, c.want)
		}
	}
}
