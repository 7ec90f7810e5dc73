package guvm

// hwfault_test.go — system-level tests of the hardware fault domain:
// degraded/flapping links survive audited runs deterministically, device
// death re-homes every resident page (the page-conservation drill), and
// identical seeds replay identical recoveries digest for digest.

import (
	"errors"
	"testing"

	"guvm/internal/faultinject"
	"guvm/internal/workloads"
)

// hwTestConfig is testConfig with audit enabled and an epoch short
// enough that fault-regime transitions happen many times per run.
func hwTestConfig() SystemConfig {
	cfg := testConfig()
	cfg.Audit.Enabled = true
	cfg.HW = faultinject.DefaultHardwareConfig()
	cfg.HW.EpochLength = cfg.HW.EpochLength / 4
	return cfg
}

func TestSimulatorReuseSentinel(t *testing.T) {
	cfg := testConfig()
	s := mustSim(t, cfg)
	if _, err := s.Run(workloads.NewStream(4<<20, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(workloads.NewStream(4<<20, 8)); !errors.Is(err, ErrSimulatorReused) {
		t.Fatalf("second Run err = %v, want ErrSimulatorReused", err)
	}

	m := mustMulti(t, cfg, 1)
	if _, err := m.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.RunConcurrent([]workloads.Workload{workloads.NewStream(4<<20, 8)}); !errors.Is(err, ErrSimulatorReused) {
		t.Fatalf("second RunConcurrent err = %v, want ErrSimulatorReused", err)
	}
}

// A run under link degradation and flapping completes audit-clean, with
// the retry ledgers agreeing across layers.
func TestDegradedLinkAuditedRun(t *testing.T) {
	cfg := hwTestConfig()
	cfg.HW.LinkDegradeRate = 0.4
	cfg.HW.LinkFlapRate = 0.3

	res := mustRun(t, cfg, workloads.NewStream(8<<20, 16))
	if res.LinkStats.DegradedOps == 0 {
		t.Fatal("no degraded operations recorded — fault regime never engaged")
	}
	n := res.HWStats.LinkTransfer
	if n.Injected == 0 {
		t.Fatal("no transfer drops injected at flap rate 0.3")
	}
	if uint64(res.DriverStats.HWLinkRetries) != n.Injected {
		t.Fatalf("driver re-carries %d != injected drops %d",
			res.DriverStats.HWLinkRetries, n.Injected)
	}
	if n.Unrecovered != 0 {
		t.Fatalf("%d transfers unrecovered under default retry budget", n.Unrecovered)
	}
	if res.DeviceFailed {
		t.Fatal("DeviceFailed with no kill scheduled")
	}
}

// Two runs with the same seed must produce identical per-batch digest
// streams even while the link degrades and flaps.
func TestDegradedLinkDeterminism(t *testing.T) {
	cfg := hwTestConfig()
	cfg.HW.LinkDegradeRate = 0.4
	cfg.HW.LinkFlapRate = 0.3
	rep, err := VerifyDeterminism(cfg, workloads.NewStream(8<<20, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Match {
		t.Fatalf("degraded-mode divergence at batch %d:\n%s\n%s",
			rep.FirstDivergentBatch, rep.A.Dump, rep.B.Dump)
	}
}

// The single-device death drill: kill mid-run, expect a truncated but
// audit-clean run with every resident page re-homed.
func TestSingleDeviceKillRehomesPages(t *testing.T) {
	cfg := hwTestConfig()
	cfg.HW.KillBatch = 3

	s := mustSim(t, cfg)
	res, err := s.Run(workloads.NewStream(8<<20, 16))
	if err != nil {
		t.Fatal(err)
	}
	if !res.DeviceFailed {
		t.Fatal("DeviceFailed = false after scheduled kill")
	}
	st := res.DriverStats
	if st.ResidentAtKill == 0 {
		t.Fatal("nothing resident at kill — drill exercised nothing")
	}
	if st.RehomedPages != st.ResidentAtKill {
		t.Fatalf("re-homed %d pages, %d were resident at kill", st.RehomedPages, st.ResidentAtKill)
	}
	if res.HWStats.DevicesKilled != 1 {
		t.Fatalf("DevicesKilled = %d, want 1", res.HWStats.DevicesKilled)
	}
	if got := len(res.Batches); got != 3 {
		t.Fatalf("serviced %d batches, want exactly 3 before the kill", got)
	}
	if err := res.Audit.Err(); err != nil {
		t.Fatalf("audit violation: %v", err)
	}
	// One device is the uncontended arbiter: the recovery lands in the
	// same ledger as on a multi-GPU system.
	recs := s.Arbiter.Rehomes()
	if len(recs) != 1 {
		t.Fatalf("arbiter recorded %d re-homings, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Device != 0 || rec.Batch != 3 || rec.Pages != st.RehomedPages || rec.Bytes != st.RehomedBytes {
		t.Fatalf("arbiter record %+v disagrees with driver stats %+v", rec, st)
	}
}

// A kill schedule for a device the system does not have is a
// construction error, not a silent no-op.
func TestKillDeviceValidation(t *testing.T) {
	cfg := testConfig()
	cfg.HW.KillBatch = 1
	cfg.HW.KillDevice = 1
	if _, err := NewSimulator(cfg); err == nil {
		t.Fatal("NewSimulator accepted KillDevice=1 on a single-GPU system")
	}
	cfg.HW.KillDevice = 2
	if _, err := NewMultiSimulator(cfg, 2); err == nil {
		t.Fatal("NewMultiSimulator accepted KillDevice=2 with 2 devices")
	}
	cfg.HW.KillDevice = 1
	if _, err := NewMultiSimulator(cfg, 2); err != nil {
		t.Fatalf("NewMultiSimulator rejected valid kill schedule: %v", err)
	}
}

// The multi-GPU chaos drill: two devices share the host; device 1 dies
// after its Nth batch. The survivor must complete untouched, the victim
// must conserve every page, the arbiter must carry the recovery record,
// and identical seeds must replay the whole failure bit-identically.
func TestMultiGPUDeviceDeathDrill(t *testing.T) {
	mkCfg := func() SystemConfig {
		cfg := hwTestConfig()
		cfg.HW.KillDevice = 1
		cfg.HW.KillBatch = 3
		return cfg
	}
	mkWs := func() []workloads.Workload {
		return []workloads.Workload{
			workloads.NewStream(8<<20, 16),
			workloads.NewStream(8<<20, 16),
		}
	}

	run := func() (*Simulator, []*Result) {
		t.Helper()
		m := mustMulti(t, mkCfg(), 2)
		results, err := m.RunConcurrent(mkWs())
		if err != nil {
			t.Fatalf("drill run: %v", err)
		}
		return m, results
	}

	m, results := run()
	survivor, victim := results[0], results[1]
	if survivor.DeviceFailed {
		t.Fatal("survivor marked failed")
	}
	if victim.DeviceFailed != true {
		t.Fatal("victim not marked failed")
	}
	if survivor.KernelTime <= 0 || len(survivor.Batches) <= len(victim.Batches) {
		t.Fatalf("survivor did not outlive the victim: %d vs %d batches",
			len(survivor.Batches), len(victim.Batches))
	}
	st := victim.DriverStats
	if st.ResidentAtKill == 0 || st.RehomedPages != st.ResidentAtKill {
		t.Fatalf("page conservation: re-homed %d, resident at kill %d",
			st.RehomedPages, st.ResidentAtKill)
	}
	for i, r := range results {
		if err := r.Audit.Err(); err != nil {
			t.Fatalf("device %d audit violation: %v", i, err)
		}
	}
	recs := m.Arbiter.Rehomes()
	if len(recs) != 1 {
		t.Fatalf("arbiter recorded %d re-homings, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Device != 1 || rec.Batch != 3 || rec.Pages != st.RehomedPages || rec.Bytes != st.RehomedBytes {
		t.Fatalf("arbiter record %+v disagrees with driver stats %+v", rec, st)
	}

	// Same seed, second run: the recovery must replay digest-identical.
	_, again := run()
	for i := range results {
		d1 := results[i].Audit.FinalDigest
		d2 := again[i].Audit.FinalDigest
		if d1 != d2 {
			t.Fatalf("device %d final digest %#x != repeat run %#x", i, d1, d2)
		}
	}
}

// The degraded-aware sizing policy must engage (shrink the batch) while
// the link is unhealthy and stay selectable through the registry.
func TestDegradedAwareBatchSizing(t *testing.T) {
	cfg := hwTestConfig()
	cfg.HW.LinkDegradeRate = 1 // every epoch degraded
	cfg.Policies.BatchSizing = "degraded-aware"

	res := mustRun(t, cfg, workloads.NewStream(8<<20, 16))
	if res.DriverStats.DegradedShrinks == 0 {
		t.Fatal("degraded-aware sizer never shrank on an always-degraded link")
	}

	// The same policy on a healthy link behaves like plain adaptive:
	// no degraded shrinks.
	cfg2 := hwTestConfig()
	cfg2.HW.LinkFlapRate = 0.0
	cfg2.HW.LinkDegradeRate = 0.0
	cfg2.HW.KillBatch = 0
	cfg2.Policies.BatchSizing = "degraded-aware"
	// HW disabled entirely: the policy still validates and runs.
	res2 := mustRun(t, cfg2, workloads.NewStream(8<<20, 16))
	if res2.DriverStats.DegradedShrinks != 0 {
		t.Fatalf("%d degraded shrinks on a healthy link", res2.DriverStats.DegradedShrinks)
	}
}
