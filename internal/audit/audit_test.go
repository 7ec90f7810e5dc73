package audit

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/uvm"
)

// validRecord builds a batch record that passes every self-consistency
// check; tests corrupt one field at a time.
func validRecord() trace.BatchRecord {
	return trace.BatchRecord{
		ID:    3,
		Start: 1000,
		End:   11000,

		RawFaults:   10,
		Type1Dups:   2,
		Type2Dups:   1,
		UniquePages: 7,
		StalePages:  1,
		VABlocks:    2,

		PagesMigrated: 6,
		BytesMigrated: 6 * mem.PageSize,

		TFetch:    2000,
		TPopulate: 3000,
		TTransfer: 1000,

		ServicedBlocks: []mem.VABlockID{4, 9},
		FaultsPerSM:    []uint16{4, 6},
		VABlockFaults:  []uint16{7, 3},
	}
}

func TestCheckBatchRecordValid(t *testing.T) {
	rec := validRecord()
	if v := CheckBatchRecord(&rec); v != nil {
		t.Fatalf("valid record rejected: %v", v)
	}
}

func TestCheckBatchRecordCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(r *trace.BatchRecord)
		check   string
	}{
		{"dedup sum broken", func(r *trace.BatchRecord) { r.UniquePages++ }, "fault-accounting"},
		{"stale exceeds unique", func(r *trace.BatchRecord) { r.StalePages = r.UniquePages + 1 }, "fault-accounting"},
		{"per-SM histogram broken", func(r *trace.BatchRecord) { r.FaultsPerSM[0]++ }, "fault-accounting"},
		{"per-VABlock histogram broken", func(r *trace.BatchRecord) { r.VABlockFaults[1]-- }, "fault-accounting"},
		{"more fault blocks than histogram", func(r *trace.BatchRecord) { r.VABlocks = 3 }, "fault-accounting"},
		{"serviced list too short", func(r *trace.BatchRecord) { r.ServicedBlocks = r.ServicedBlocks[:1] }, "fault-accounting"},
		{"block serviced twice", func(r *trace.BatchRecord) { r.ServicedBlocks[1] = r.ServicedBlocks[0] }, "fault-accounting"},
		{"bytes disagree with pages", func(r *trace.BatchRecord) { r.BytesMigrated++ }, "fault-accounting"},
		{"batch ends before start", func(r *trace.BatchRecord) { r.End = r.Start - 1 }, "batch-times"},
		{"negative component", func(r *trace.BatchRecord) { r.TUnmap = -1 }, "batch-times"},
		{"components exceed duration", func(r *trace.BatchRecord) { r.TReplay = r.Duration() }, "batch-times"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := validRecord()
			tc.corrupt(&rec)
			v := CheckBatchRecord(&rec)
			if v == nil {
				t.Fatal("corruption not detected")
			}
			if v.Check != tc.check {
				t.Fatalf("reported check %q, want %q (%v)", v.Check, tc.check, v)
			}
			if !errors.Is(v, ErrViolation) {
				t.Fatal("violation does not match ErrViolation")
			}
		})
	}
}

// TestCheckBatchRecordParallelWorkers: with ServiceWorkers > 1 the time
// components record aggregate work across workers, so the sum bound is
// workers x duration — a record that is over-budget serially must pass
// at the matching concurrency, and still fail past it.
func TestCheckBatchRecordParallelWorkers(t *testing.T) {
	rec := validRecord()
	rec.TPopulate = 3 * rec.Duration() / 2 // sum > 1x duration, < 2x
	if v := CheckBatchRecord(&rec); v == nil || v.Check != "batch-times" {
		t.Fatalf("over-budget serial record not flagged: %v", v)
	}
	if v := CheckBatchRecordParallel(&rec, 2); v != nil {
		t.Fatalf("2-worker batch wrongly flagged: %v", v)
	}
	rec.TPopulate = 3 * rec.Duration()
	if v := CheckBatchRecordParallel(&rec, 2); v == nil || v.Check != "batch-times" {
		t.Fatalf("record past 2x duration not flagged: %v", v)
	}
}

// TestCheckBatchRecordSaturatedHistograms verifies the uint16 clamp guard:
// a batch at the histogram saturation point must not be failed for lossy
// cells.
func TestCheckBatchRecordSaturatedHistograms(t *testing.T) {
	rec := validRecord()
	rec.RawFaults = 70000
	rec.UniquePages = 70000
	rec.Type1Dups, rec.Type2Dups = 0, 0
	rec.StalePages = 0
	// Histograms saturate at 65535 per cell and no longer sum back.
	rec.FaultsPerSM = []uint16{65535}
	rec.VABlockFaults = []uint16{65535, 100}
	if v := CheckBatchRecord(&rec); v != nil {
		t.Fatalf("saturated histograms must be exempt: %v", v)
	}
}

func TestViolationErrorMessages(t *testing.T) {
	v := &ViolationError{Check: "link-conservation", Batch: 12, At: 99, Detail: "off by one"}
	if !strings.Contains(v.Error(), "batch 12") || !strings.Contains(v.Error(), "link-conservation") {
		t.Fatalf("bad message: %s", v.Error())
	}
	v.Batch = -1
	if !strings.Contains(v.Error(), "end of run") {
		t.Fatalf("end-of-run violation not labeled: %s", v.Error())
	}
}

func TestReportErr(t *testing.T) {
	var nilRep *Report
	if nilRep.Err() != nil {
		t.Fatal("nil report must have nil error")
	}
	rep := &Report{}
	if rep.Err() != nil {
		t.Fatal("clean report must have nil error")
	}
	first := &ViolationError{Check: "a"}
	rep.Violations = append(rep.Violations, first, &ViolationError{Check: "b"})
	if rep.Err() != first {
		t.Fatal("Err must return the first violation")
	}
}

func TestConfigActive(t *testing.T) {
	if (Config{}).Active() {
		t.Fatal("zero config must be inactive")
	}
	if !(Config{Enabled: true}).Active() || !(Config{Interval: 4}).Active() {
		t.Fatal("enabled or snapshotting config must be active")
	}
}

func TestCompareSnapshots(t *testing.T) {
	mk := func(batch int, combined uint64) Snapshot {
		return Snapshot{Batch: batch, Combined: combined}
	}
	t.Run("identical", func(t *testing.T) {
		a := []Snapshot{mk(0, 10), mk(1, 20)}
		rep := CompareSnapshots(a, []Snapshot{mk(0, 10), mk(1, 20)})
		if !rep.Match || rep.Compared != 2 || rep.FirstDivergentBatch != -1 {
			t.Fatalf("identical streams: %+v", rep)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if rep := CompareSnapshots(nil, nil); !rep.Match {
			t.Fatalf("empty streams must match: %+v", rep)
		}
	})
	t.Run("digest differs", func(t *testing.T) {
		a := []Snapshot{mk(0, 10), mk(1, 20), mk(2, 30)}
		b := []Snapshot{mk(0, 10), mk(1, 99), mk(2, 30)}
		rep := CompareSnapshots(a, b)
		if rep.Match || rep.FirstDivergentBatch != 1 {
			t.Fatalf("divergence at batch 1 missed: %+v", rep)
		}
		if rep.A.Combined != 20 || rep.B.Combined != 99 {
			t.Fatalf("divergent pair not captured: %+v", rep)
		}
	})
	t.Run("length differs", func(t *testing.T) {
		a := []Snapshot{mk(0, 10)}
		b := []Snapshot{mk(0, 10), mk(1, 20)}
		rep := CompareSnapshots(a, b)
		if rep.Match || rep.FirstDivergentBatch != 1 {
			t.Fatalf("unpaired snapshot missed: %+v", rep)
		}
	})
}

// testSystem wires a minimal real system (no workload run needed) so the
// state checks can be probed directly.
func testSystem(t *testing.T) *Auditor {
	t.Helper()
	eng := sim.NewEngine()
	vm := hostos.NewVM(hostos.DefaultCostModel())
	link := interconnect.NewLink(interconnect.DefaultPCIe3x16())
	drv, err := uvm.NewDriver(uvm.DefaultConfig(), eng, vm, link)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpu.NewDevice(gpu.DefaultTitanV(), eng, drv)
	if err != nil {
		t.Fatal(err)
	}
	drv.Attach(dev)
	inj, err := faultinject.New(faultinject.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return New(Config{Enabled: true, Interval: 1}, Options{}, eng, drv, dev, vm, inj)
}

// TestCheckNowCleanSystem: a freshly wired, never-run system satisfies
// every state invariant.
func TestCheckNowCleanSystem(t *testing.T) {
	a := testSystem(t)
	if vs := a.CheckNow(); len(vs) != 0 {
		t.Fatalf("clean system violates invariants: %v", vs[0])
	}
}

// TestCheckDriverStateCorruptions forges driver audit states that break
// each structural invariant and verifies the right check trips. The forged
// states never come from a real driver — they are the states a buggy
// driver would expose.
func TestCheckDriverStateCorruptions(t *testing.T) {
	blockWithChunk := func(id mem.VABlockID) uvm.BlockAudit {
		b := uvm.BlockAudit{ID: id, HasChunk: true, Chunk: 0}
		b.Resident.Set(0)
		b.Populated.Set(0)
		return b
	}
	cases := []struct {
		name  string
		state uvm.AuditState
		check string
	}{
		{
			"capacity exceeded",
			uvm.AuditState{ChunksInUse: 5, CapacityBlocks: 4},
			"residency-capacity",
		},
		{
			"resident but never populated",
			func() uvm.AuditState {
				b := uvm.BlockAudit{ID: 1, HasChunk: true}
				b.Resident.Set(3) // populated stays empty
				return uvm.AuditState{Blocks: []uvm.BlockAudit{b}, ChunksInUse: 1, CapacityBlocks: 4}
			}(),
			"residency-capacity",
		},
		{
			"resident without a chunk",
			func() uvm.AuditState {
				b := uvm.BlockAudit{ID: 1}
				b.Resident.Set(3)
				b.Populated.Set(3)
				return uvm.AuditState{Blocks: []uvm.BlockAudit{b}, CapacityBlocks: 4}
			}(),
			"residency-capacity",
		},
		{
			"one chunk claimed twice",
			uvm.AuditState{
				Blocks:         []uvm.BlockAudit{blockWithChunk(1), blockWithChunk(2)},
				AllocatedOrder: []mem.VABlockID{1, 2},
				ChunksInUse:    2, CapacityBlocks: 4,
			},
			"chunk-bijection",
		},
		{
			"chunk unknown to the allocator",
			uvm.AuditState{
				Blocks:         []uvm.BlockAudit{blockWithChunk(1)},
				AllocatedOrder: []mem.VABlockID{1},
				ChunksInUse:    1, CapacityBlocks: 4,
			},
			"chunk-bijection",
		},
		{
			"chunk count disagrees with allocator",
			uvm.AuditState{ChunksInUse: 1, CapacityBlocks: 4},
			"residency-capacity",
		},
		{
			"victim list out of sync",
			uvm.AuditState{AllocatedOrder: []mem.VABlockID{1}, CapacityBlocks: 4},
			"residency-capacity",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := testSystem(t)
			st := tc.state
			v := a.checkDriverState(&st)
			if v == nil {
				t.Fatal("corrupt state not detected")
			}
			if v.Check != tc.check {
				t.Fatalf("reported check %q, want %q (%v)", v.Check, tc.check, v)
			}
		})
	}
}

// TestCheckLinkConservation: the auditor's migration ledger must reconcile
// with the link's counters; a phantom migration (ledger ahead of the link)
// trips the check.
func TestCheckLinkConservation(t *testing.T) {
	a := testSystem(t)
	var st uvm.Stats
	if v := a.checkLinkConservation(&st); v != nil {
		t.Fatalf("idle link flagged: %v", v)
	}
	a.sumMigrated = mem.PageSize
	v := a.checkLinkConservation(&st)
	if v == nil {
		t.Fatal("phantom migration not detected")
	}
	if v.Check != "link-conservation" {
		t.Fatalf("reported check %q, want link-conservation", v.Check)
	}
}

// TestCheckInjectionCleanSystem: the injection ledgers of an idle injector
// reconcile trivially.
func TestCheckInjectionCleanSystem(t *testing.T) {
	a := testSystem(t)
	var st uvm.Stats
	if v := a.checkInjection(&st); v != nil {
		t.Fatalf("idle injector flagged: %v", v)
	}
	// A driver counter with no injector-side injections breaks the
	// cross-layer equality.
	st.MigRetries = 3
	v := a.checkInjection(&st)
	if v == nil {
		t.Fatal("driver/injector mismatch not detected")
	}
	if v.Check != "injection-conservation" {
		t.Fatalf("reported check %q, want injection-conservation", v.Check)
	}
}

// TestSharedOptionsSkipCrossLayerChecks: multi-GPU wiring must not fail
// the per-device reconciliations that aliasing invalidates.
func TestSharedOptionsSkipCrossLayerChecks(t *testing.T) {
	a := testSystem(t)
	a.opt = Options{Shared: true}
	var st uvm.Stats
	st.MigRetries = 3 // would trip the single-injector equality
	if v := a.checkInjection(&st); v != nil {
		t.Fatalf("Shared did not skip cross-layer check: %v", v)
	}
}

// TestStateScratchDoesNotLeak reuses the auditor's scratch (the driver
// snapshot and the chunk-owner map) across checks: clean checks of a
// many-block state must stay clean when repeated, and a later corrupted
// state with fewer blocks, or with two blocks sharing a chunk, must still
// be reported — no entry left over from an earlier check may hide or
// fake a violation.
func TestStateScratchDoesNotLeak(t *testing.T) {
	a := testSystem(t)
	const blocks = 8
	base := a.drv.Alloc(blocks * mem.VABlockSize)
	if _, err := a.drv.ExplicitCopyToGPU(base, blocks*mem.VABlockSize); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if vs := a.CheckNow(); len(vs) != 0 {
			t.Fatalf("clean check %d through reused scratch: %v", i, vs[0])
		}
	}
	full := a.drv.AuditState()
	if len(full.Blocks) < blocks {
		t.Fatalf("setup: %d blocks known, want >= %d", len(full.Blocks), blocks)
	}
	clone := func() uvm.AuditState {
		st := full
		st.Blocks = slices.Clone(full.Blocks)
		st.AllocatedOrder = slices.Clone(full.AllocatedOrder)
		return st
	}
	fewer := clone()
	fewer.Blocks = fewer.Blocks[:3]
	shared := clone()
	shared.Blocks[len(shared.Blocks)-1].Chunk = shared.Blocks[len(shared.Blocks)-2].Chunk
	for _, tc := range []struct {
		name  string
		state uvm.AuditState
		check string
	}{
		{"fewer blocks than chunks in use", fewer, "residency-capacity"},
		{"two blocks hold one chunk", shared, "chunk-bijection"},
	} {
		if v := a.checkDriverState(&full); v != nil {
			t.Fatalf("%s: clean state before the corrupted one: %v", tc.name, v)
		}
		v := a.checkDriverState(&tc.state)
		if v == nil || v.Check != tc.check {
			t.Fatalf("%s: got %v, want a %s violation", tc.name, v, tc.check)
		}
	}
	if vs := a.CheckNow(); len(vs) != 0 {
		t.Fatalf("clean check after the corrupted ones: %v", vs[0])
	}
}
