package guvm

import (
	"errors"
	"reflect"
	"testing"

	"guvm/internal/uvm"
	"guvm/internal/workloads"
)

// TestFaultBufferOverflowReplayRecovers is the overflow regression test: a
// fault buffer far smaller than the fault population must drop records
// (hardware overflow), yet the run completes because dropped accesses
// re-fault after each replay — and the whole recovery is deterministic.
func TestFaultBufferOverflowReplayRecovers(t *testing.T) {
	runOnce := func() (*Result, int) {
		cfg := testConfig()
		cfg.GPU.FaultBufferEntries = 24 // tiny: guaranteed overflow
		cfg.Driver.PrefetchEnabled = false
		cfg.Driver.Upgrade64K = false
		s := mustSim(t, cfg)
		res, err := s.Run(workloads.NewStream(8<<20, 16))
		if err != nil {
			t.Fatalf("overflowing run failed: %v", err)
		}
		return res, s.Devices[0].Buffer.Dropped
	}

	res, dropped := runOnce()
	if dropped == 0 {
		t.Fatal("no overflow drops with a 24-entry buffer")
	}
	if res.DeviceStats.Refaults == 0 {
		t.Fatal("no refaults; dropped accesses were never replayed")
	}
	if res.BytesMigrated() == 0 {
		t.Fatal("no data migrated")
	}

	// Determinism across runs, drop/replay counters included.
	res2, dropped2 := runOnce()
	if dropped != dropped2 {
		t.Fatalf("drop count diverges: %d vs %d", dropped, dropped2)
	}
	if res.DeviceStats != res2.DeviceStats {
		t.Fatalf("device stats diverge:\n%+v\n%+v", res.DeviceStats, res2.DeviceStats)
	}
	if !reflect.DeepEqual(res.Batches, res2.Batches) {
		t.Fatal("batch telemetry diverges between identical overflowing runs")
	}
}

// injectedConfig enables all three injection categories at survivable
// rates with deep retry budgets.
func injectedConfig() SystemConfig {
	cfg := testConfig()
	cfg.Inject.Seed = 42
	cfg.Inject.BufferDropRate = 0.05
	cfg.Inject.BufferDropRetries = 12
	cfg.Inject.MigrateFailRate = 0.1
	cfg.Inject.MigrateMaxRetries = 12
	cfg.Inject.HostAllocFailRate = 0.05
	cfg.Inject.HostAllocMaxRetries = 20
	return cfg
}

// TestInjectionEndToEndDeterministic: same seed, same injection config →
// two byte-identical runs, injected/retried/recovered counters included.
func TestInjectionEndToEndDeterministic(t *testing.T) {
	runOnce := func() *Result {
		res, err := mustSim(t, injectedConfig()).Run(workloads.NewStream(8<<20, 16))
		if err != nil {
			t.Fatalf("injected run failed: %v", err)
		}
		return res
	}
	a, b := runOnce(), runOnce()

	if a.InjectStats.BufferDrop.Injected == 0 &&
		a.InjectStats.Migrate.Injected == 0 && a.InjectStats.HostAlloc.Injected == 0 {
		t.Fatal("no faults injected despite nonzero rates")
	}
	if a.InjectStats != b.InjectStats {
		t.Fatalf("injection counters diverge:\n%+v\n%+v", a.InjectStats, b.InjectStats)
	}
	if a.KernelTime != b.KernelTime || a.TotalTime != b.TotalTime {
		t.Fatalf("timing diverges: %v/%v vs %v/%v", a.KernelTime, a.TotalTime, b.KernelTime, b.TotalTime)
	}
	if a.DriverStats != b.DriverStats || a.DeviceStats != b.DeviceStats {
		t.Fatal("stats diverge between identically seeded injected runs")
	}
	if !reflect.DeepEqual(a.Batches, b.Batches) {
		t.Fatal("batch telemetry diverges between identically seeded injected runs")
	}
}

// TestInjectionRecoveryVisible: the survivable-rate run above must
// actually exercise all three categories and recover.
func TestInjectionRecoveryVisible(t *testing.T) {
	res, err := mustSim(t, injectedConfig()).Run(workloads.NewStream(8<<20, 16))
	if err != nil {
		t.Fatalf("injected run failed: %v", err)
	}
	is := res.InjectStats
	if is.BufferDrop.Injected == 0 || is.Migrate.Injected == 0 || is.HostAlloc.Injected == 0 {
		t.Fatalf("a category injected nothing: %+v", is)
	}
	if is.BufferDrop.Recovered == 0 || is.Migrate.Recovered == 0 || is.HostAlloc.Recovered == 0 {
		t.Fatalf("a category recovered nothing: %+v", is)
	}
	if is.Migrate.Unrecovered != 0 || is.HostAlloc.Unrecovered != 0 {
		t.Fatalf("fatal failures under deep retry budgets: %+v", is)
	}
	if res.DriverStats.MigRetries == 0 || res.DriverStats.HostAllocFailures == 0 {
		t.Fatalf("driver saw no retries: %+v", res.DriverStats)
	}
}

// TestInjectionDisabledBitIdentical checks the headline guarantee at the
// public API: a config whose injection rates are zero (whatever the seed)
// yields exactly the same result as the default config.
func TestInjectionDisabledBitIdentical(t *testing.T) {
	runOnce := func(cfg SystemConfig) *Result {
		res, err := mustSim(t, cfg).Run(workloads.NewStream(8<<20, 16))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := runOnce(testConfig())
	cfg := testConfig()
	cfg.Inject.Seed = 0xdeadbeef // must be irrelevant at zero rates
	other := runOnce(cfg)

	if base.KernelTime != other.KernelTime || base.TotalTime != other.TotalTime {
		t.Fatalf("timing differs with an inert injector: %v/%v vs %v/%v",
			base.KernelTime, base.TotalTime, other.KernelTime, other.TotalTime)
	}
	if base.DriverStats != other.DriverStats || base.DeviceStats != other.DeviceStats ||
		base.HostStats != other.HostStats || base.LinkStats != other.LinkStats {
		t.Fatal("stats differ with an inert injector")
	}
	if !reflect.DeepEqual(base.Batches, other.Batches) {
		t.Fatal("batch telemetry differs with an inert injector")
	}
	if other.InjectStats != (Result{}).InjectStats {
		t.Fatalf("inert injector reported activity: %+v", other.InjectStats)
	}
}

// TestUnrecoverableDropStalls drops every fault with no re-emission
// budget: the event queue drains with warps still waiting, and the run
// must surface the typed stall diagnostic instead of hanging.
func TestUnrecoverableDropStalls(t *testing.T) {
	cfg := testConfig()
	cfg.Inject.BufferDropRate = 1.0
	cfg.Inject.BufferDropRetries = 0
	_, err := mustSim(t, cfg).Run(workloads.NewStream(4<<20, 8))
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("err = %v, want ErrStalled", err)
	}
}

// TestMigrationExhaustionSurfacesThroughAPI: a fatal injected migration
// propagates as a typed error from Run, not a panic.
func TestMigrationExhaustionSurfacesThroughAPI(t *testing.T) {
	cfg := testConfig()
	cfg.Inject.MigrateFailRate = 1.0
	cfg.Inject.MigrateMaxRetries = 1
	_, err := mustSim(t, cfg).Run(workloads.NewStream(4<<20, 8))
	if err == nil {
		t.Fatal("run succeeded with a 100% transfer fail rate")
	}
	if !errors.Is(err, uvm.ErrMigrationFailed) {
		t.Fatalf("err = %v, want uvm.ErrMigrationFailed", err)
	}
}

// TestInvalidInjectionConfigRejected: NewSimulator validates rates.
func TestInvalidInjectionConfigRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Inject.BufferDropRate = 1.5
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("out-of-range injection rate accepted")
	}
}
