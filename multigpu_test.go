package guvm

import (
	"errors"
	"strings"
	"testing"

	"guvm/internal/obs"
	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

func mustMulti(t *testing.T, cfg SystemConfig, n int) *Simulator {
	t.Helper()
	m, err := NewMultiSimulator(cfg, n)
	if err != nil {
		t.Fatalf("NewMultiSimulator: %v", err)
	}
	return m
}

func TestMultiSimulatorSingleDeviceMatchesSolo(t *testing.T) {
	cfg := testConfig()
	mk := func() workloads.Workload { return workloads.NewStream(8<<20, 16) }

	solo := mustRun(t, cfg, mk())
	multi, err := mustMulti(t, cfg, 1).RunConcurrent([]workloads.Workload{mk()})
	if err != nil {
		t.Fatal(err)
	}
	// One device behind an uncontended arbiter behaves like the solo
	// simulator.
	if multi[0].KernelTime != solo.KernelTime {
		t.Fatalf("1-device multi kernel %v != solo %v", multi[0].KernelTime, solo.KernelTime)
	}
	if len(multi[0].Batches) != len(solo.Batches) {
		t.Fatalf("batch count %d != %d", len(multi[0].Batches), len(solo.Batches))
	}
}

func TestMultiSimulatorInterference(t *testing.T) {
	cfg := testConfig()
	mk := func() workloads.Workload {
		s := workloads.NewStream(8<<20, 16)
		s.ComputePerChunk = 0 // fault-bound: maximal driver pressure
		return s
	}
	solo := mustRun(t, cfg, mk())

	m := mustMulti(t, cfg, 2)
	results, err := m.RunConcurrent([]workloads.Workload{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	// The shared host driver serializes servicing: each device's kernel
	// slows down versus running alone.
	for i, r := range results {
		if r.KernelTime <= solo.KernelTime {
			t.Fatalf("device %d kernel %v not slower than solo %v under contention",
				i, r.KernelTime, solo.KernelTime)
		}
	}
	if m.Arbiter.Stats().Queued == 0 {
		t.Fatal("no arbiter contention recorded")
	}
	if m.Arbiter.Stats().TotalWait <= 0 {
		t.Fatal("no queueing delay recorded")
	}
}

func TestMultiSimulatorIndependentResidency(t *testing.T) {
	cfg := testConfig()
	m := mustMulti(t, cfg, 2)
	ws := []workloads.Workload{
		workloads.NewStream(4<<20, 8),
		workloads.NewRegular(8<<20, 16),
	}
	results, err := m.RunConcurrent(ws)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Workload != "stream" || results[1].Workload != "regular" {
		t.Fatalf("workload attribution wrong: %s/%s", results[0].Workload, results[1].Workload)
	}
	// Each device migrated its own working set.
	if results[0].LinkStats.BytesToGPU != 3*(4<<20) {
		t.Fatalf("device 0 migrated %d", results[0].LinkStats.BytesToGPU)
	}
	if results[1].LinkStats.BytesToGPU != 8<<20 {
		t.Fatalf("device 1 migrated %d", results[1].LinkStats.BytesToGPU)
	}
}

func TestMultiSimulatorValidation(t *testing.T) {
	cfg := testConfig()
	m := mustMulti(t, cfg, 2)
	if _, err := m.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err == nil {
		t.Fatal("mismatched workload count accepted")
	}
	m2 := mustMulti(t, cfg, 1)
	if _, err := m2.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err == nil {
		t.Fatal("second RunConcurrent accepted")
	}
	if _, err := NewMultiSimulator(cfg, 0); err == nil {
		t.Fatal("0 devices accepted")
	}
	// The observer follows one device; a multi-GPU system must reject it
	// rather than silently drop it.
	obsCfg := cfg
	obsCfg.Obs = obs.Config{SampleInterval: 1}
	if _, err := NewMultiSimulator(obsCfg, 2); err == nil || !strings.Contains(err.Error(), "has 2 devices") {
		t.Fatalf("active Obs on 2 devices: err = %v, want an error naming the device count", err)
	}
	// Run is the one-workload entry point: on two devices it is a
	// workload-count mismatch.
	if _, err := mustMulti(t, cfg, 2).Run(workloads.NewStream(4<<20, 8)); err == nil ||
		!strings.Contains(err.Error(), "1 workloads for 2 devices") {
		t.Fatalf("Run on 2 devices: err = %v, want the workload-count error", err)
	}
}

// TestMultiSimulatorNamedPolicies drives the shared-arbiter path through a
// named policy combination (fifo eviction + cross-block prefetch +
// adaptive batch sizing) on two contending devices, and requires two runs
// to produce bit-identical per-device digest streams: the staged pipeline
// stays deterministic when the Arbiter serializes it and every §6
// extension is selected by registry name.
func TestMultiSimulatorNamedPolicies(t *testing.T) {
	cfg := testConfig()
	cfg.Driver.GPUMemBytes = 6 << 20 // 8 MB stream: eviction active per device
	cfg.Policies = uvm.PolicySelection{
		Eviction:    "fifo",
		Prefetch:    "cross-block",
		BatchSizing: "adaptive",
	}
	cfg.Audit.Enabled = true
	cfg.Audit.Interval = 1

	runOnce := func() []*Result {
		m := mustMulti(t, cfg, 2)
		// The selection must land on every driver's resolved config.
		for i, d := range m.Drivers {
			if got := d.Config().Eviction; got != uvm.EvictFIFO {
				t.Fatalf("driver %d eviction = %q, want fifo", i, got)
			}
			if !d.Config().AdaptiveBatch || d.Config().CrossBlockPrefetch < 1 {
				t.Fatalf("driver %d policies not applied: %+v", i, d.Config())
			}
		}
		rs, err := m.RunConcurrent([]workloads.Workload{
			workloads.NewStream(8<<20, 16),
			workloads.NewStream(8<<20, 16),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i].DriverStats.Evictions == 0 {
			t.Fatalf("device %d: no evictions — the fifo policy never ran", i)
		}
		as, bs := a[i].Audit.Snapshots, b[i].Audit.Snapshots
		if len(as) == 0 || len(as) != len(bs) {
			t.Fatalf("device %d: snapshot streams %d vs %d", i, len(as), len(bs))
		}
		for j := range as {
			if as[j].Combined != bs[j].Combined {
				t.Fatalf("device %d: digest diverged at batch %d: %016x vs %016x",
					i, as[j].Batch, as[j].Combined, bs[j].Combined)
			}
		}
		if a[i].Audit.FinalDigest != b[i].Audit.FinalDigest {
			t.Fatalf("device %d: final digests differ", i)
		}
	}
}

// TestMultiSimulatorRejectsUnknownPolicy mirrors the single-GPU
// constructor: an unregistered policy name fails fast with the typed
// registry error before any device is built.
func TestMultiSimulatorRejectsUnknownPolicy(t *testing.T) {
	cfg := testConfig()
	cfg.Policies.Eviction = "clock"
	if _, err := NewMultiSimulator(cfg, 2); !errors.Is(err, uvm.ErrUnknownPolicy) {
		t.Fatalf("err = %v, want ErrUnknownPolicy", err)
	}
}

func TestMultiSimulatorDeterministic(t *testing.T) {
	cfg := testConfig()
	runOnce := func() []*Result {
		m := mustMulti(t, cfg, 2)
		rs, err := m.RunConcurrent([]workloads.Workload{
			workloads.NewStream(4<<20, 8),
			workloads.NewStream(4<<20, 8),
		})
		if err != nil {
			t.Fatal(err)
		}
		return rs
	}
	a, b := runOnce(), runOnce()
	for i := range a {
		if a[i].KernelTime != b[i].KernelTime || len(a[i].Batches) != len(b[i].Batches) {
			t.Fatalf("device %d nondeterministic", i)
		}
	}
}
