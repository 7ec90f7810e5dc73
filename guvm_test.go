package guvm

import (
	"strings"
	"testing"

	"guvm/internal/mem"
	"guvm/internal/workloads"
)

// testConfig shrinks the default profile for fast integration tests.
func testConfig() SystemConfig {
	cfg := DefaultConfig()
	cfg.GPU.NumSMs = 8
	cfg.Driver.GPUMemBytes = 64 << 20
	return cfg
}

func mustSim(t *testing.T, cfg SystemConfig) *Simulator {
	t.Helper()
	s, err := NewSimulator(cfg)
	if err != nil {
		t.Fatalf("NewSimulator: %v", err)
	}
	return s
}

func mustRun(t *testing.T, cfg SystemConfig, w workloads.Workload) *Result {
	t.Helper()
	res, err := mustSim(t, cfg).Run(w)
	if err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return res
}

func TestSimulatorRunsEveryWorkload(t *testing.T) {
	cfg := testConfig()
	for _, w := range []workloads.Workload{
		workloads.NewVecAddPaper(),
		workloads.NewVecAddPrefetch(),
		workloads.NewRegular(16<<20, 16),
		workloads.NewRandom(16<<20, 16, 40, 9),
		workloads.NewStream(8<<20, 16),
		workloads.NewSGEMM(1024),
		workloads.NewFFT(1<<20, 8),
		workloads.NewGaussSeidel(1024, 2),
		workloads.NewHPGMG(16<<20, 2),
	} {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			res := mustRun(t, cfg, w)
			if len(res.Batches) == 0 {
				t.Fatal("no batches")
			}
			if res.KernelTime <= 0 {
				t.Fatal("no kernel time")
			}
			if res.BytesMigrated() == 0 {
				t.Fatal("no data migrated")
			}
			// Batch time is contained within total time.
			if res.BatchTime() > res.TotalTime {
				t.Fatalf("batch time %d > total %d", res.BatchTime(), res.TotalTime)
			}
		})
	}
}

func TestSimulatorSingleShot(t *testing.T) {
	s := mustSim(t, testConfig())
	if _, err := s.Run(workloads.NewStream(4<<20, 8)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(workloads.NewStream(4<<20, 8)); err == nil {
		t.Fatal("second Run on same Simulator succeeded")
	}
}

// TestPhasesPanicIsAnError: a workload whose Phases panics (a GEMM size
// off its tile) fails the run with an error; the caller keeps running.
func TestPhasesPanicIsAnError(t *testing.T) {
	_, err := mustSim(t, testConfig()).Run(workloads.NewSGEMM(1000))
	if err == nil || !strings.Contains(err.Error(), "not divisible by tile") {
		t.Fatalf("Run(sgemm n=1000) = %v, want the tiling panic as an error", err)
	}
}

func TestExplicitManagementFaultFree(t *testing.T) {
	cfg := testConfig()
	res, err := mustSim(t, cfg).RunExplicit(workloads.NewStream(8<<20, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 0 {
		t.Fatalf("explicit run produced %d fault batches", len(res.Batches))
	}
	if res.DeviceStats.FaultsEmitted != 0 {
		t.Fatalf("explicit run emitted %d faults", res.DeviceStats.FaultsEmitted)
	}
	if res.LinkStats.BytesToGPU != 3*(8<<20) {
		t.Fatalf("explicit copied %d bytes, want %d", res.LinkStats.BytesToGPU, 3*(8<<20))
	}
}

func TestExplicitRefusesOversubscription(t *testing.T) {
	cfg := testConfig()
	cfg.Driver.GPUMemBytes = 8 << 20
	if _, err := mustSim(t, cfg).RunExplicit(workloads.NewStream(8<<20, 16)); err == nil {
		t.Fatal("explicit oversubscription accepted")
	}
}

func TestUVMSlowerThanExplicit(t *testing.T) {
	// Figure 1: transparent paging costs at least an order of magnitude
	// in access latency over explicit bulk copies. Use a memory-bound
	// stream (no compute pacing) so the comparison isolates paging cost.
	cfg := testConfig()
	w := func() workloads.Workload {
		s := workloads.NewStream(16<<20, 16)
		s.ComputePerChunk = 0
		return s
	}
	uvmRes := mustRun(t, cfg, w())
	expRes, err := mustSim(t, cfg).RunExplicit(w())
	if err != nil {
		t.Fatal(err)
	}
	if uvmRes.KernelTime < 5*expRes.KernelTime {
		t.Fatalf("UVM kernel %v not >= 5x explicit kernel %v",
			uvmRes.KernelTime, expRes.KernelTime)
	}
}

func TestOversubscribedStreamEvicts(t *testing.T) {
	cfg := testConfig()
	cfg.Driver.GPUMemBytes = 32 << 20
	// 3 x 16 MB arrays = 48 MB working set on a 32 MB GPU.
	res := mustRun(t, cfg, workloads.NewStream(16<<20, 16))
	if res.DriverStats.Evictions == 0 {
		t.Fatal("no evictions at 150% working set")
	}
}

func TestPrefetchSpeedsUpStream(t *testing.T) {
	mk := func() workloads.Workload {
		s := workloads.NewStream(16<<20, 16)
		s.ComputePerChunk = 0
		return s
	}
	cfg := testConfig()
	on := mustRun(t, cfg, mk())
	cfgOff := testConfig()
	cfgOff.Driver.PrefetchEnabled = false
	cfgOff.Driver.Upgrade64K = false
	off := mustRun(t, cfgOff, mk())
	if on.KernelTime >= off.KernelTime {
		t.Fatalf("prefetch kernel %v not faster than no-prefetch %v",
			on.KernelTime, off.KernelTime)
	}
	if len(on.Batches)*2 > len(off.Batches) {
		t.Fatalf("prefetch batches %d not <1/2 of no-prefetch %d",
			len(on.Batches), len(off.Batches))
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	cfg := testConfig()
	a := mustRun(t, cfg, workloads.NewSGEMM(1024))
	b := mustRun(t, cfg, workloads.NewSGEMM(1024))
	if a.KernelTime != b.KernelTime || a.TotalTime != b.TotalTime {
		t.Fatalf("nondeterministic timing: %v/%v vs %v/%v",
			a.KernelTime, a.TotalTime, b.KernelTime, b.TotalTime)
	}
	if len(a.Batches) != len(b.Batches) {
		t.Fatalf("nondeterministic batch count: %d vs %d", len(a.Batches), len(b.Batches))
	}
	for i := range a.Batches {
		if a.Batches[i].RawFaults != b.Batches[i].RawFaults ||
			a.Batches[i].Duration() != b.Batches[i].Duration() {
			t.Fatalf("batch %d differs between runs", i)
		}
	}
}

func TestKeepFaultsPopulatesResult(t *testing.T) {
	cfg := testConfig()
	cfg.KeepFaults = true
	res := mustRun(t, cfg, workloads.NewVecAddPaper())
	if len(res.Faults) == 0 {
		t.Fatal("KeepFaults produced no fault records")
	}
	if len(res.Faults) != len(res.FaultBatch) {
		t.Fatal("fault/batch arrays misaligned")
	}
}

func TestListing1EndToEnd(t *testing.T) {
	// The §3.2 microbenchmark through the whole stack: 56-fault first
	// batch, read faults strictly before the iteration's write faults.
	cfg := DefaultConfig() // full 80-SM GPU; single warp uses one SM
	cfg.KeepFaults = true
	res := mustRun(t, cfg, workloads.NewVecAddPaper())
	if res.Batches[0].RawFaults != 56 {
		t.Fatalf("first batch = %d faults, want 56", res.Batches[0].RawFaults)
	}
}

func TestBatchRecordsInternallyConsistent(t *testing.T) {
	cfg := testConfig()
	cfg.Driver.GPUMemBytes = 16 << 20
	res := mustRun(t, cfg, workloads.NewGaussSeidel(1448, 3)) // ~8 MB grid
	prev := res.Batches[0].Start
	for _, b := range res.Batches {
		if b.Start < prev {
			t.Fatalf("batch %d starts before predecessor", b.ID)
		}
		prev = b.Start
		if b.End <= b.Start {
			t.Fatalf("batch %d empty interval", b.ID)
		}
		if b.UniquePages+b.DupFaults() != b.RawFaults {
			t.Fatalf("batch %d: unique %d + dups %d != raw %d",
				b.ID, b.UniquePages, b.DupFaults(), b.RawFaults)
		}
		if b.PagesMigrated > 0 && b.BytesMigrated != uint64(b.PagesMigrated)*mem.PageSize {
			t.Fatalf("batch %d: bytes/pages mismatch", b.ID)
		}
		var smSum int
		for _, c := range b.FaultsPerSM {
			smSum += int(c)
		}
		if smSum != b.RawFaults {
			t.Fatalf("batch %d: per-SM counts sum %d != raw %d", b.ID, smSum, b.RawFaults)
		}
		var blkSum int
		for _, c := range b.VABlockFaults {
			blkSum += int(c)
		}
		if blkSum != b.RawFaults {
			t.Fatalf("batch %d: per-block counts sum %d != raw %d", b.ID, blkSum, b.RawFaults)
		}
	}
}

func TestHostStatsReported(t *testing.T) {
	cfg := testConfig()
	res := mustRun(t, cfg, workloads.NewHPGMG(16<<20, 4))
	if res.HostStats.UnmapCalls == 0 {
		t.Fatal("no unmap calls for host-initialized HPGMG")
	}
	if res.HostStats.DMAPagesMapped == 0 {
		t.Fatal("no DMA pages mapped")
	}
	if res.LinkStats.BytesToGPU == 0 {
		t.Fatal("no link traffic")
	}
}

func TestCoalescedVecaddNeedsTwoFaultRounds(t *testing.T) {
	// §3.2: "A coalescing version of the vector addition code implies
	// that each faulting warp (or block) requires at least two full
	// fault batches to complete its work, despite having the data
	// requirements available upfront." Reads must be serviced (round 1)
	// before the dependent writes can even fault (round 2).
	cfg := DefaultConfig()
	cfg.KeepFaults = true
	cfg.Driver.PrefetchEnabled = false
	cfg.Driver.Upgrade64K = false
	res := mustRun(t, cfg, workloads.NewVecAddCoalesced())
	if len(res.Batches) < 2 {
		t.Fatalf("only %d batches; coalesced vecadd needs >= 2 rounds", len(res.Batches))
	}
	// No write fault may share a batch with (or precede) the read
	// faults of its warp's slice.
	firstWriteBatch := -1
	lastReadBatch := -1
	for i, f := range res.Faults {
		switch f.Kind.String() {
		case "write":
			if firstWriteBatch < 0 {
				firstWriteBatch = res.FaultBatch[i]
			}
		case "read":
			lastReadBatch = res.FaultBatch[i]
		}
	}
	if firstWriteBatch < 1 {
		t.Fatalf("first write fault in batch %d; want a later round than reads", firstWriteBatch)
	}
	_ = lastReadBatch
}
