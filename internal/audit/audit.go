// Package audit is the simulator's runtime invariant auditor. It attaches
// to a wired system (driver, device, host VM, link, injector) and checks,
// at every batch boundary and at end of run, the conservation laws the
// model must obey no matter the workload or configuration:
//
//   - fault accounting: unique pages plus duplicates equals raw faults,
//     and the per-SM / per-VABlock histograms sum back to the raw count;
//   - residency vs capacity: chunks in use never exceed capacity, resident
//     pages are populated and chunk-backed, and chunk ownership is a
//     bijection between live chunks and blocks;
//   - host exclusivity: no page is GPU-resident and CPU-mapped at once;
//   - eviction consistency: an evicted block holds no chunk and no
//     resident pages (unless the same batch re-serviced it);
//   - link conservation: bytes the link carried to the GPU equal the batch
//     migration totals plus explicit copies plus injected-retry traffic,
//     and bytes to the host equal eviction writeback;
//   - injection conservation: per category, injected faults equal retried
//     plus unrecovered, with the device's drop counters agreeing.
//
// Violations surface as typed *ViolationError values through the
// engine's Fail path — the auditor never panics. The same per-batch hook
// also snapshots FNV-1a digests of every model's canonical state, which
// the determinism verifier compares across runs to find the first
// divergent batch.
package audit

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"guvm/internal/digest"
	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/gpumem"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
	"guvm/internal/uvm"
)

// Config enables and tunes the auditor.
type Config struct {
	// Enabled turns on invariant checking at every batch boundary and at
	// end of run.
	Enabled bool
	// Interval, when positive, snapshots every model's state digest each
	// Interval batches (the determinism verifier uses 1). Zero disables
	// snapshots; the final digest is always recorded.
	Interval int
	// KeepDumps retains a human-readable state dump in every snapshot so
	// a divergence can be diagnosed field by field (memory-heavy; meant
	// for the determinism verifier).
	KeepDumps bool
}

// Active reports whether an auditor should be attached at all.
func (c Config) Active() bool { return c.Enabled || c.Interval > 0 }

// Options adapt the checks to how the system is wired.
type Options struct {
	// Shared marks a driver that shares its host VM, injector and hardware
	// domain with other drivers (a multi-GPU system). It disables the
	// per-device checks that reconcile against those shared components:
	// host exclusivity (every driver has its own VA space, so block IDs
	// alias across devices in the one host VM) and the cross-layer
	// injection and hardware-injection equalities (per-device counters are
	// each a fraction of the shared injectors' totals).
	Shared bool
}

// ErrViolation is the sentinel matched by errors.Is for any invariant
// violation. The concrete error is always a *ViolationError.
var ErrViolation = errors.New("audit: invariant violated")

// ViolationError describes one invariant violation: which check failed,
// at which batch (or -1 for an end-of-run check), and how.
type ViolationError struct {
	// Check names the violated invariant, e.g. "fault-accounting".
	Check string
	// Batch is the batch the violation was detected at, -1 at end of run.
	Batch int
	// At is the virtual time of detection.
	At sim.Time
	// Detail states the failed relation with its observed values.
	Detail string
}

func (e *ViolationError) Error() string {
	where := fmt.Sprintf("batch %d", e.Batch)
	if e.Batch < 0 {
		where = "end of run"
	}
	return fmt.Sprintf("audit: %s violated at %s (virtual time %d ns): %s",
		e.Check, where, e.At, e.Detail)
}

// Unwrap lets errors.Is(err, ErrViolation) match.
func (e *ViolationError) Unwrap() error { return ErrViolation }

// Snapshot is one per-batch digest of every model's canonical state.
type Snapshot struct {
	// Batch is the batch ID the snapshot was taken after.
	Batch int
	// At is the virtual time of the batch end.
	At sim.Time

	Driver uint64
	Device uint64
	Host   uint64
	Link   uint64
	// Combined folds the four component digests into one word.
	Combined uint64

	// Dump is the concatenated human-readable state (only with
	// Config.KeepDumps).
	Dump string
}

// Report is the auditor's outcome, carried on guvm.Result.
type Report struct {
	// BatchesAudited counts batch boundaries the auditor observed.
	BatchesAudited int
	// ChecksRun counts individual invariant evaluations.
	ChecksRun int
	// Snapshots holds the periodic digest snapshots, in batch order.
	Snapshots []Snapshot
	// Violations holds every detected violation, in detection order. The
	// engine stops on the first one, so more than one entry only occurs
	// when end-of-run checks follow a clean run.
	Violations []*ViolationError
	// FinalDigest is the combined digest of the final system state.
	FinalDigest uint64
}

// Err returns the first violation, or nil.
func (r *Report) Err() error {
	if r == nil || len(r.Violations) == 0 {
		return nil
	}
	return r.Violations[0]
}

// Auditor watches one driver/device pair (plus the host VM, link and
// injector they are wired to) and checks invariants at batch boundaries.
type Auditor struct {
	cfg  Config
	opt  Options
	eng  *sim.Engine
	drv  *uvm.Driver
	dev  *gpu.Device
	vm   *hostos.VM
	link *interconnect.Link
	inj  *faultinject.Injector
	hw   *faultinject.HardwareInjector

	// Running link-conservation ledgers, accumulated per observed batch.
	sumMigrated uint64
	sumEvicted  uint64

	// dst and owners are the state checks' scratch, refilled and cleared
	// at every check: the driver snapshot (AuditStateInto) and the
	// chunk-bijection map. Nothing outlives one check.
	dst    uvm.AuditState
	owners map[gpumem.ChunkID]mem.VABlockID

	rep Report
}

// New builds an auditor for an assembled system. Call Attach before the
// run starts so every batch is observed.
func New(cfg Config, opt Options, eng *sim.Engine, drv *uvm.Driver, dev *gpu.Device, vm *hostos.VM, inj *faultinject.Injector) *Auditor {
	return &Auditor{
		cfg:  cfg,
		opt:  opt,
		eng:  eng,
		drv:  drv,
		dev:  dev,
		vm:   vm,
		link: drv.Link(),
		inj:  inj,

		owners: make(map[gpumem.ChunkID]mem.VABlockID),
	}
}

// SetHardware attaches the hardware fault-domain injector so its
// conservation ledgers are audited too. A nil injector (the default)
// skips the hardware checks.
func (a *Auditor) SetHardware(hw *faultinject.HardwareInjector) { a.hw = hw }

// Attach registers the auditor as the driver's batch observer.
func (a *Auditor) Attach() { a.drv.AddBatchObserver(a.onBatch) }

// onBatch runs at every batch end, after the record was collected and the
// arbiter released, before the next batch starts.
func (a *Auditor) onBatch(id int, rec *trace.BatchRecord) {
	a.rep.BatchesAudited++
	if a.cfg.Interval > 0 && id%a.cfg.Interval == 0 {
		a.rep.Snapshots = append(a.rep.Snapshots, a.snapshot(id))
	}
	if !a.cfg.Enabled {
		return
	}
	if v := a.checkBatch(id, rec); v != nil {
		a.violate(v)
	}
}

// violate records v and stops the engine with it (first error wins).
func (a *Auditor) violate(v *ViolationError) {
	a.rep.Violations = append(a.rep.Violations, v)
	a.eng.Fail(v)
}

// Finish records the final digest, runs the end-of-run checks when the
// run itself completed cleanly, and returns the report. Violations found
// here are appended to the report; the caller surfaces them as errors.
func (a *Auditor) Finish(runErr error) *Report {
	a.rep.FinalDigest = a.combined()
	if a.cfg.Enabled && runErr == nil {
		for _, v := range a.CheckNow() {
			a.rep.Violations = append(a.rep.Violations, v)
		}
		for _, v := range a.finalChecks() {
			a.rep.Violations = append(a.rep.Violations, v)
		}
	}
	return &a.rep
}

// checkBatch evaluates all per-batch invariants and returns the first
// violation found.
func (a *Auditor) checkBatch(id int, rec *trace.BatchRecord) *ViolationError {
	a.rep.ChecksRun++
	if v := a.stamp(CheckBatchRecordParallel(rec, a.drv.Config().ServiceWorkers), id); v != nil {
		return v
	}
	dst := &a.dst
	a.drv.AuditStateInto(dst)
	if v := a.stamp(a.checkDriverState(dst), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkEvictions(rec, dst), id); v != nil {
		return v
	}
	a.sumMigrated += rec.BytesMigrated
	a.sumEvicted += rec.EvictedBytes
	if v := a.stamp(a.checkLinkConservation(&dst.Stats), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkInjection(&dst.Stats), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkHardware(&dst.Stats), id); v != nil {
		return v
	}
	if v := a.stamp(a.checkPageConservation(dst), id); v != nil {
		return v
	}
	return nil
}

// stamp fills in the detection context of a violation.
func (a *Auditor) stamp(v *ViolationError, batch int) *ViolationError {
	if v != nil {
		v.Batch = batch
		v.At = a.eng.Now()
	}
	return v
}

// CheckNow evaluates every state invariant against the current model
// state. It is valid at any batch boundary (and after the run); tests use
// it to probe deliberately corrupted systems.
func (a *Auditor) CheckNow() []*ViolationError {
	var vs []*ViolationError
	dst := &a.dst
	a.drv.AuditStateInto(dst)
	if v := a.stamp(a.checkDriverState(dst), -1); v != nil {
		vs = append(vs, v)
	}
	if v := a.stamp(a.checkInjection(&dst.Stats), -1); v != nil {
		vs = append(vs, v)
	}
	if v := a.stamp(a.checkHardware(&dst.Stats), -1); v != nil {
		vs = append(vs, v)
	}
	if v := a.stamp(a.checkPageConservation(dst), -1); v != nil {
		vs = append(vs, v)
	}
	return vs
}

// finalChecks evaluates the invariants that only hold once the event
// queue drained cleanly: device quiescence and link conservation over the
// whole run.
func (a *Auditor) finalChecks() []*ViolationError {
	var vs []*ViolationError
	dev := a.dev.AuditState()
	a.rep.ChecksRun++
	if dev.Killed && !a.drv.Dead() {
		vs = append(vs, a.stamp(&ViolationError{
			Check:  "page-conservation",
			Detail: "device killed but driver never re-homed (not marked dead)",
		}, -1))
	}
	if dev.Running || dev.BufferLen != 0 || dev.TotalPending() != 0 || dev.LiveBlocks != 0 {
		vs = append(vs, a.stamp(&ViolationError{
			Check: "device-quiescence",
			Detail: fmt.Sprintf("running=%v bufferLen=%d pendingFaults=%d liveBlocks=%d after clean drain",
				dev.Running, dev.BufferLen, dev.TotalPending(), dev.LiveBlocks),
		}, -1))
	}
	st := a.drv.Stats()
	if v := a.stamp(a.checkLinkConservation(&st), -1); v != nil {
		vs = append(vs, v)
	}
	return vs
}

// checkLinkConservation reconciles the link's byte counters against the
// driver-side ledgers: every byte to the GPU is a batch migration, an
// explicit bulk copy, injected-retry traffic, or a re-carried transfer
// the hardware domain dropped; every byte to the host is eviction
// writeback, a dropped writeback attempt, or device-loss re-homing.
func (a *Auditor) checkLinkConservation(st *uvm.Stats) *ViolationError {
	a.rep.ChecksRun++
	ls := a.link.Stats()
	wantToGPU := a.sumMigrated + st.ExplicitBytes + st.InjMigRetryBytes + st.HWRetryToGPUBytes
	if ls.BytesToGPU != wantToGPU {
		return &ViolationError{
			Check: "link-conservation",
			Detail: fmt.Sprintf("BytesToGPU = %d, want %d (batches %d + explicit %d + injected retries %d + hw re-carries %d)",
				ls.BytesToGPU, wantToGPU, a.sumMigrated, st.ExplicitBytes, st.InjMigRetryBytes, st.HWRetryToGPUBytes),
		}
	}
	wantToHost := a.sumEvicted + st.HWRetryToHostBytes + st.RehomedBytes
	if ls.BytesToHost != wantToHost {
		return &ViolationError{
			Check: "link-conservation",
			Detail: fmt.Sprintf("BytesToHost = %d, want %d (eviction writeback %d + hw re-carries %d + re-homed %d)",
				ls.BytesToHost, wantToHost, a.sumEvicted, st.HWRetryToHostBytes, st.RehomedBytes),
		}
	}
	return nil
}

// checkHardware verifies the hardware fault domain's conservation
// ledgers: every injected transfer drop is either retried or
// unrecovered, recoveries never exceed retries, and (single-link wiring
// only) the driver's retry count equals the injected drops.
func (a *Auditor) checkHardware(st *uvm.Stats) *ViolationError {
	if a.hw == nil {
		return nil
	}
	a.rep.ChecksRun++
	hs := a.hw.Stats()
	n := hs.LinkTransfer
	if n.Injected != n.Retried+n.Unrecovered {
		return &ViolationError{
			Check: "hw-injection-conservation",
			Detail: fmt.Sprintf("link-transfer: injected %d != retried %d + unrecovered %d",
				n.Injected, n.Retried, n.Unrecovered),
		}
	}
	if n.Recovered > n.Retried {
		return &ViolationError{
			Check:  "hw-injection-conservation",
			Detail: fmt.Sprintf("link-transfer: recovered %d > retried %d", n.Recovered, n.Retried),
		}
	}
	if a.opt.Shared {
		return nil
	}
	if uint64(st.HWLinkRetries) != n.Injected {
		return &ViolationError{
			Check: "hw-injection-conservation",
			Detail: fmt.Sprintf("driver link re-carries %d != injected transfer drops %d",
				st.HWLinkRetries, n.Injected),
		}
	}
	return nil
}

// checkPageConservation verifies device-loss recovery: a dead driver
// holds no chunks and no resident pages, its victim-scan list is empty,
// and the pages it re-homed to the host account exactly for everything
// resident at the instant of death — no page lost, none invented.
func (a *Auditor) checkPageConservation(dst *uvm.AuditState) *ViolationError {
	if !dst.Dead {
		return nil
	}
	a.rep.ChecksRun++
	for i := range dst.Blocks {
		b := &dst.Blocks[i]
		if b.HasChunk || b.Resident.Any() {
			return &ViolationError{
				Check: "page-conservation",
				Detail: fmt.Sprintf("dead driver: block %d still holds chunk=%v, %d resident pages",
					b.ID, b.HasChunk, b.Resident.Count()),
			}
		}
	}
	if dst.ChunksInUse != 0 || len(dst.AllocatedOrder) != 0 {
		return &ViolationError{
			Check: "page-conservation",
			Detail: fmt.Sprintf("dead driver: %d chunks in use, %d blocks in victim scan",
				dst.ChunksInUse, len(dst.AllocatedOrder)),
		}
	}
	st := &dst.Stats
	if st.RehomedPages != st.ResidentAtKill {
		return &ViolationError{
			Check: "page-conservation",
			Detail: fmt.Sprintf("re-homed %d pages but %d were resident at kill",
				st.RehomedPages, st.ResidentAtKill),
		}
	}
	if st.RehomedBytes != uint64(st.RehomedPages)*mem.PageSize {
		return &ViolationError{
			Check: "page-conservation",
			Detail: fmt.Sprintf("re-homed bytes %d != %d pages * %d",
				st.RehomedBytes, st.RehomedPages, mem.PageSize),
		}
	}
	return nil
}

// checkInjection verifies the per-category injection ledgers. Every
// injected fault is either retried or unrecovered, recoveries never
// exceed retries, and (single-injector wiring only) the device and driver
// counters match the injector's.
func (a *Auditor) checkInjection(st *uvm.Stats) *ViolationError {
	a.rep.ChecksRun++
	is := a.inj.Stats()
	for _, c := range []faultinject.Category{faultinject.BufferDrop, faultinject.Migrate, faultinject.HostAlloc} {
		n := is.Of(c)
		if n.Injected != n.Retried+n.Unrecovered {
			return &ViolationError{
				Check: "injection-conservation",
				Detail: fmt.Sprintf("%s: injected %d != retried %d + unrecovered %d",
					c, n.Injected, n.Retried, n.Unrecovered),
			}
		}
		if n.Recovered > n.Retried {
			return &ViolationError{
				Check:  "injection-conservation",
				Detail: fmt.Sprintf("%s: recovered %d > retried %d", c, n.Recovered, n.Retried),
			}
		}
	}
	ds := a.dev.Stats()
	if ds.InjectedDrops != ds.InjectedDropRetries+ds.InjectedDropsLost {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("device: injected drops %d != retries %d + lost %d",
				ds.InjectedDrops, ds.InjectedDropRetries, ds.InjectedDropsLost),
		}
	}
	if a.opt.Shared {
		return nil
	}
	if uint64(ds.InjectedDrops) != is.BufferDrop.Injected {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("device drops %d != injector buffer-drop injections %d",
				ds.InjectedDrops, is.BufferDrop.Injected),
		}
	}
	if uint64(st.MigRetries) != is.Migrate.Injected {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("driver migration retries %d != injector migrate injections %d",
				st.MigRetries, is.Migrate.Injected),
		}
	}
	if uint64(st.HostAllocFailures) != is.HostAlloc.Injected {
		return &ViolationError{
			Check: "injection-conservation",
			Detail: fmt.Sprintf("driver host-alloc failures %d != injector host-alloc injections %d",
				st.HostAllocFailures, is.HostAlloc.Injected),
		}
	}
	return nil
}

// checkDriverState verifies residency-vs-capacity, the chunk-ownership
// bijection, and (single-host wiring only) host exclusivity.
func (a *Auditor) checkDriverState(dst *uvm.AuditState) *ViolationError {
	a.rep.ChecksRun++
	if dst.ChunksInUse > dst.CapacityBlocks {
		return &ViolationError{
			Check:  "residency-capacity",
			Detail: fmt.Sprintf("%d chunks in use > capacity %d", dst.ChunksInUse, dst.CapacityBlocks),
		}
	}
	owners := a.owners
	clear(owners)
	withChunk := 0
	for i := range dst.Blocks {
		b := &dst.Blocks[i]
		for w := range b.Resident {
			if b.Resident[w]&^b.Populated[w] != 0 {
				return &ViolationError{
					Check:  "residency-capacity",
					Detail: fmt.Sprintf("block %d has resident pages that were never populated", b.ID),
				}
			}
		}
		if b.Resident.Any() && !b.HasChunk {
			return &ViolationError{
				Check:  "residency-capacity",
				Detail: fmt.Sprintf("block %d has %d resident pages but no chunk", b.ID, b.Resident.Count()),
			}
		}
		if b.HasChunk {
			withChunk++
			if prev, dup := owners[b.Chunk]; dup {
				return &ViolationError{
					Check:  "chunk-bijection",
					Detail: fmt.Sprintf("chunk %d claimed by both block %d and block %d", b.Chunk, prev, b.ID),
				}
			}
			owners[b.Chunk] = b.ID
			owner, ok := a.drv.ChunkOwner(b.Chunk)
			if !ok || owner != b.ID {
				return &ViolationError{
					Check:  "chunk-bijection",
					Detail: fmt.Sprintf("block %d holds chunk %d, but the allocator records owner (%d, live=%v)", b.ID, b.Chunk, owner, ok),
				}
			}
		}
		if !a.opt.Shared {
			mp := a.vm.MappedPages(b.ID)
			for w := range mp {
				if mp[w]&b.Resident[w] != 0 {
					return &ViolationError{
						Check:  "host-exclusivity",
						Detail: fmt.Sprintf("block %d has pages both GPU-resident and CPU-mapped", b.ID),
					}
				}
			}
		}
	}
	if withChunk != dst.ChunksInUse {
		return &ViolationError{
			Check:  "residency-capacity",
			Detail: fmt.Sprintf("%d blocks hold chunks but the allocator reports %d in use", withChunk, dst.ChunksInUse),
		}
	}
	if len(dst.AllocatedOrder) != withChunk {
		return &ViolationError{
			Check:  "residency-capacity",
			Detail: fmt.Sprintf("victim-scan list has %d entries for %d chunk-backed blocks", len(dst.AllocatedOrder), withChunk),
		}
	}
	return nil
}

// checkEvictions verifies that every block this batch evicted — and did
// not re-service afterwards — ended the batch with no chunk and no
// resident pages.
func (a *Auditor) checkEvictions(rec *trace.BatchRecord, dst *uvm.AuditState) *ViolationError {
	a.rep.ChecksRun++
	if rec.Evictions != len(rec.EvictedBlocks) {
		return &ViolationError{
			Check:  "eviction-consistency",
			Detail: fmt.Sprintf("Evictions = %d but %d evicted blocks recorded", rec.Evictions, len(rec.EvictedBlocks)),
		}
	}
	for _, bid := range rec.EvictedBlocks {
		if slices.Contains(rec.ServicedBlocks, bid) {
			// Evicted and serviced in the same batch (last-resort victim
			// or re-fault): the final state is whatever the later of the
			// two operations left.
			continue
		}
		// dst.Blocks ascends by ID.
		i, ok := slices.BinarySearchFunc(dst.Blocks, bid, func(b uvm.BlockAudit, id mem.VABlockID) int {
			return cmp.Compare(b.ID, id)
		})
		if !ok {
			return &ViolationError{
				Check:  "eviction-consistency",
				Detail: fmt.Sprintf("evicted block %d is unknown to the driver", bid),
			}
		}
		b := &dst.Blocks[i]
		if b.HasChunk || b.Resident.Any() {
			return &ViolationError{
				Check: "eviction-consistency",
				Detail: fmt.Sprintf("evicted block %d still holds chunk=%v, %d resident pages",
					bid, b.HasChunk, b.Resident.Count()),
			}
		}
	}
	return nil
}

// snapshot digests every model's canonical state.
func (a *Auditor) snapshot(batch int) Snapshot {
	s := Snapshot{
		Batch:  batch,
		At:     a.eng.Now(),
		Driver: a.drv.Digest(),
		Device: a.dev.Digest(),
		Host:   a.vm.Digest(),
		Link:   a.link.Digest(),
	}
	s.Combined = digest.Combine(s.Driver, s.Device, s.Host, s.Link)
	if a.cfg.KeepDumps {
		drv := a.drv.AuditState()
		dev := a.dev.AuditState()
		host := a.vm.AuditState()
		s.Dump = drv.Dump() + dev.Dump() + host.Dump() + a.link.AuditState().Dump()
	}
	return s
}

// combined returns the current combined digest of all four models.
func (a *Auditor) combined() uint64 {
	return digest.Combine(a.drv.Digest(), a.dev.Digest(), a.vm.Digest(), a.link.Digest())
}
