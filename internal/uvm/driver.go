package uvm

// driver.go — the driver core: per-VABlock bookkeeping, driver-level
// counters, managed allocation, explicit management, residency queries,
// and construction/wiring. The fault-servicing pipeline itself lives in
// the stage files (see pipeline.go for the stage graph).

import (
	"fmt"

	"guvm/internal/faultinject"
	"guvm/internal/gpu"
	"guvm/internal/gpumem"
	"guvm/internal/hostos"
	"guvm/internal/interconnect"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// blockState is the driver's per-VABlock bookkeeping.
type blockState struct {
	id mem.VABlockID
	// resident marks pages currently in GPU memory.
	resident mem.PageSet
	// populated marks pages that ever became GPU-resident: first-time
	// residency pays the page-population (zero-fill) cost.
	populated mem.PageSet
	// hasChunk: a 2 MB GPU chunk backs the block; chunk identifies it.
	hasChunk bool
	chunk    gpumem.ChunkID
	// dmaMapped: the block paid its compulsory first-touch DMA setup.
	dmaMapped bool
	// lastTouch is the batch counter of the last migration into the
	// block; LRU eviction picks the minimum ("essentially earliest
	// allocated", §5.4).
	lastTouch int
	// allocSeq orders chunk allocations for FIFO eviction and
	// deterministic LRU ties.
	allocSeq int
	// evictions counts how many times this block was evicted.
	evictions int
	// remoteMapped marks pages mapped for GPU access while staying in
	// host memory (access-counter architecture); always empty elsewhere.
	remoteMapped mem.PageSet
}

// Stats aggregates driver-level counters beyond per-batch records.
type Stats struct {
	Batches         int
	TotalFaults     int
	StaleFaults     int
	Evictions       int
	PrefetchedPages int
	// CrossBlockPages counts pages migrated by cross-VABlock prefetch.
	CrossBlockPages int
	MigratedPages   int
	WakeUps         int
	SpuriousWakeUps int
	// AsyncUnmapCalls/Time account preemptive unmapping performed off
	// the fault path at kernel launch.
	AsyncUnmapCalls int
	AsyncUnmapTime  sim.Time
	// MigRetries counts migration transfer attempts repeated after an
	// injected transient failure.
	MigRetries int
	// HostAllocFailures counts injected host allocation failures the
	// driver degraded around.
	HostAllocFailures int
	// BatchShrinks counts effective-batch-size halvings forced by host
	// allocation pressure.
	BatchShrinks int
	// ExplicitBytes counts bytes bulk-copied outside the fault path
	// (cudaMemcpy-style management); the audit subsystem reconciles it
	// against link accounting.
	ExplicitBytes uint64
	// InjMigRetryBytes counts bytes re-carried by injected transient
	// migration failures: the link charged them, but no batch record
	// counts them as migrated.
	InjMigRetryBytes uint64
	// RemoteMappedPages counts pages serviced by remote mapping instead
	// of migration; CounterPromotions counts blocks promoted to GPU
	// residency after their access counter crossed the threshold. Both
	// are only non-zero under the access-counter architecture.
	RemoteMappedPages int
	CounterPromotions int

	// Hardware fault-domain telemetry (all zero unless a hardware
	// injector is attached; see SetHardware).
	//
	// HWLinkRetries counts transfer attempts dropped by a flapping
	// link (each drop triggers a retry unless the budget is exhausted);
	// HWRetryToGPUBytes/HWRetryToHostBytes count the bytes those
	// dropped attempts carried (charged by the link, but not counted by
	// any batch record).
	HWLinkRetries      int
	HWRetryToGPUBytes  uint64
	HWRetryToHostBytes uint64
	// DegradedShrinks counts effective-batch halvings forced by the
	// degraded-aware batch-sizing policy observing an unhealthy link.
	DegradedShrinks int
	// RehomedBlocks/RehomedPages/RehomedBytes account the emergency
	// evacuation of GPU-resident pages to the host after device death;
	// ResidentAtKill is the resident-page count at the instant of death
	// (the page-conservation invariant requires RehomedPages to match).
	RehomedBlocks  int
	RehomedPages   int
	RehomedBytes   uint64
	ResidentAtKill int
}

// allocSpan records one managed allocation's VABlock range.
type allocSpan struct {
	first, last mem.VABlockID // inclusive
}

// batchScratch holds the per-batch working structures of the fault
// servicing pipeline. serviceBatch used to rebuild all of them for every
// 256-fault batch, which dominated the hot path's allocation profile;
// instead they are pooled here and cleared (never carried over, never
// shared) at the start of each batch. Nothing in a batch record may alias
// these buffers — everything retained by the trace.Collector is copied.
//
// Ownership across the stage pipeline: keys/uniq/nonStale/blockOrder
// are written by the dedup stage and read-only afterwards; inBatchExtra
// is appended by the cross-block stage, and inBatch() (blockOrder plus
// inBatchExtra) is read by eviction; blockCosts accumulates across the
// service and cross-block stages and is consumed by replay;
// pageIdx/migrate/spans are the transfer step's staging and
// evictPages/evictSpans eviction's (a separate pair because an eviction
// firing while a block's migration list is being staged is impossible
// today, but the split keeps the lifetimes trivially disjoint).
type batchScratch struct {
	// keys holds the dedup stage's packed (page, arrival) sort keys —
	// the struct-of-arrays replacement for the old per-batch maps.
	keys []uint64
	// uniq collects deduplicated pages (ascending); nonStale is uniq
	// minus already-resident pages, so per-VABlock groups are contiguous
	// runs and need no map.
	uniq     []mem.PageID
	nonStale []mem.PageID
	// blockOrder lists serviced VABlocks in ascending order; it doubles
	// as the eviction-avoidance set (inBatch), with inBatchExtra holding
	// the blocks the cross-block stage adds after dedup.
	blockOrder   []mem.VABlockID
	inBatchExtra []mem.VABlockID
	blockCosts   []sim.Time
	// pageIdx/migrate/spans are the transfer step's migration staging;
	// candidates/evictPages/evictSpans are evictOne's victim list and
	// writeback staging.
	pageIdx    []int
	migrate    []mem.PageID
	spans      []mem.Span
	candidates []int
	evictPages []mem.PageID
	evictSpans []mem.Span
}

// reset clears every buffer for a new batch, keeping capacity.
func (sc *batchScratch) reset(faults int) {
	sc.keys = sc.keys[:0]
	sc.uniq = sc.uniq[:0]
	sc.nonStale = sc.nonStale[:0]
	sc.blockOrder = sc.blockOrder[:0]
	sc.inBatchExtra = sc.inBatchExtra[:0]
	sc.blockCosts = sc.blockCosts[:0]
}

// Driver is the modeled nvidia-uvm driver: one worker servicing the fault
// buffer of one device, backed by the host OS and the interconnect.
type Driver struct {
	cfg  Config
	eng  *sim.Engine
	vm   *hostos.VM
	link *interconnect.Link
	dev  *gpu.Device
	pmm  *gpumem.Allocator

	// blocks is the per-VABlock state directory. A sparse two-level
	// structure instead of a map: GB-scale working sets touch thousands
	// of blocks and the residency probe is on the device's every memory
	// access, so lookups must be array indexes, not hashes. Entries are
	// *blockState, so d.allocated's pointers stay valid forever.
	blocks    mem.BlockDir[*blockState]
	allocated []*blockState // blocks holding GPU chunks, in alloc order
	nextSeq   int

	nextAlloc mem.Addr
	spans     []allocSpan

	sleeping   bool
	inBatch    bool
	batchCount int

	// effBatch is the adaptive effective batch size (== BatchSize when
	// AdaptiveBatch is off).
	effBatch int

	// evict/planner/sizer are the policies resolved from the registry at
	// construction (registry.go): victim selection, migration planning,
	// and effective-batch-size adjustment. arch is the resolved
	// architecture payload — the stage graph plus device wiring (arch.go);
	// stepCosts is the profiled path's per-step scratch (a fixed array so
	// construction stays allocation-neutral; architectures declare at
	// most maxBlockSteps steps).
	evict     EvictionStrategy
	planner   PrefetchPlanner
	sizer     BatchSizer
	arch      *archPayload
	stepCosts [maxBlockSteps]sim.Time

	evictRNG *sim.RNG
	inj      *faultinject.Injector

	// hw, when set, is the hardware fault domain: the transfer paths
	// retry flap-dropped link operations against it, and dead latches
	// once the device behind this driver was killed and its pages
	// re-homed (rehome.go).
	hw   *faultinject.HardwareInjector
	dead bool

	// arbiter serializes batch servicing with every other driver sharing
	// the host. NewDriver gives each driver a private, uncontended one;
	// SetArbiter replaces it with a system's shared one. The *Fn fields
	// are the batch loop's continuations (wake-up, arbitration, fetch,
	// replay) bound once, so scheduling them allocates nothing per batch.
	arbiter      *Arbiter
	startBatchFn func()
	beginBatchFn func()
	fetchLoopFn  func()
	fetchDoneFn  func()
	endBatchFn   func()

	// onBatch holds the observers of every completed batch (audit and
	// observability hooks). They run in registration order after the
	// batch record lands in the Collector and before the next batch
	// starts. Empty in the common case, so the hot path pays only a
	// length check.
	onBatch []func(id int, rec *trace.BatchRecord)

	// prof, when set, receives stage-granularity pipeline events
	// (profiler.go); nil by default so the hot path pays one pointer
	// check per hook.
	prof PipelineProfiler

	// scratch/batch/block are the pooled per-batch working state of the
	// stage pipeline; batches never overlap on one driver (inBatch
	// guards), so reuse is safe. Stages own them only between
	// serviceBatch entry and the replay completion callback.
	scratch batchScratch
	batch   batchCtx
	block   blockCtx

	Collector *trace.Collector
	stats     Stats
}

// NewDriver builds a driver. Call Attach to wire it to a device before
// launching kernels; the driver is the device's ResidencyChecker. An
// invalid configuration is an error.
func NewDriver(cfg Config, eng *sim.Engine, vm *hostos.VM, link *interconnect.Link) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	arch, err := resolveArchitecture(cfg.Architecture)
	if err != nil {
		return nil, err
	}
	if arch.configure != nil {
		// Architecture-specific config rewrites (cost model, threshold
		// defaults) apply to this driver's copy only.
		arch.configure(&cfg)
	}
	pmm := gpumem.New(cfg.GPUMemBytes)
	pmm.SetManager(arch.info.MappingOwner)
	d := &Driver{
		cfg:       cfg,
		arch:      arch,
		eng:       eng,
		vm:        vm,
		link:      link,
		pmm:       pmm,
		nextAlloc: mem.VABlockSize, // keep address 0 unused
		sleeping:  true,
		effBatch:  cfg.BatchSize,
		evict:     resolveEvictionStrategy(cfg.Eviction),
		planner:   resolvePrefetchPlanner(cfg),
		sizer:     resolveBatchSizer(cfg),
		evictRNG:  sim.NewRNG(cfg.EvictionSeed),
		arbiter:   NewArbiter(eng),
		Collector: &trace.Collector{},
	}
	d.startBatchFn, d.beginBatchFn = d.startBatch, d.beginBatch
	d.fetchLoopFn, d.fetchDoneFn, d.endBatchFn = d.fetchLoop, d.fetchDone, d.endBatch
	return d, nil
}

// Attach wires the driver to its device and registers the interrupt
// handler.
func (d *Driver) Attach(dev *gpu.Device) {
	d.dev = dev
	dev.SetInterruptHandler(d.onInterrupt)
	if d.cfg.Eviction == EvictLFU || d.arch.counters {
		dev.Counters.Enable()
	}
	if d.arch.counters {
		dev.Counters.SetThreshold(uint64(d.cfg.AccessCounterThreshold))
	}
	if d.arch.directObs {
		dev.SetDirectObservation()
	}
}

// SetArbiter makes the driver contend for a host service slot shared with
// other drivers (devices) before each batch, replacing its private one.
func (d *Driver) SetArbiter(a *Arbiter) { d.arbiter = a }

// AddBatchObserver registers fn to run at the end of every batch, after
// its record is collected. Observers run in registration order; the audit
// subsystem checks invariants and snapshots state digests here, and the
// observability layer derives phase spans and metric samples.
func (d *Driver) AddBatchObserver(fn func(id int, rec *trace.BatchRecord)) {
	d.onBatch = append(d.onBatch, fn)
}

// SetInjector attaches a fault injector to the driver's migration and
// host-allocation paths (and to the backing host VM). A nil injector (the
// default) disables injection.
func (d *Driver) SetInjector(in *faultinject.Injector) {
	d.inj = in
	d.vm.SetInjector(in)
}

// SetHardware attaches the hardware fault domain: link transfers become
// fallible (retried with deterministic backoff) and the driver can lose
// its device (RehomeToHost). A nil injector (the default) keeps every
// transfer on the guaranteed path, bit-identical to the pre-fault-domain
// model.
func (d *Driver) SetHardware(hw *faultinject.HardwareInjector) { d.hw = hw }

// Hardware returns the attached hardware fault domain (nil by default).
func (d *Driver) Hardware() *faultinject.HardwareInjector { return d.hw }

// Dead reports whether this driver's device was killed and its resident
// pages re-homed to the host.
func (d *Driver) Dead() bool { return d.dead }

// Config returns the driver configuration.
func (d *Driver) Config() Config { return d.cfg }

// Stats returns a copy of the driver counters.
func (d *Driver) Stats() Stats { return d.stats }

// HostVM returns the backing host OS model.
func (d *Driver) HostVM() *hostos.VM { return d.vm }

// Link returns the backing interconnect.
func (d *Driver) Link() *interconnect.Link { return d.link }

// AllocOption configures a managed allocation.
type AllocOption func(*allocOpts)

type allocOpts struct {
	hostInit    bool
	hostThreads int
}

// WithHostInit marks the allocation's pages as initialized by `threads`
// CPU threads: every page acquires a live CPU mapping, so the first GPU
// touch of each VABlock pays unmap_mapping_range (§4.4).
func WithHostInit(threads int) AllocOption {
	return func(o *allocOpts) {
		o.hostInit = true
		if threads < 1 {
			threads = 1
		}
		o.hostThreads = threads
	}
}

// Alloc reserves a managed (cudaMallocManaged-style) allocation of the
// given size, rounded up to whole VABlocks, and returns its base address.
func (d *Driver) Alloc(bytes uint64, opts ...AllocOption) mem.Addr {
	if bytes == 0 {
		panic("uvm: zero-byte allocation")
	}
	var o allocOpts
	for _, opt := range opts {
		opt(&o)
	}
	base := d.nextAlloc
	size := mem.Addr(mem.AlignUp(bytes, mem.VABlockSize))
	d.nextAlloc += size
	d.spans = append(d.spans, allocSpan{
		first: mem.VABlockOf(base),
		last:  mem.VABlockOf(base + size - 1),
	})
	if o.hostInit {
		nblocks := int(size / mem.VABlockSize)
		pagesLeft := int(mem.AlignUp(bytes, mem.PageSize) / mem.PageSize)
		for b := 0; b < nblocks; b++ {
			block := mem.VABlockOf(base) + mem.VABlockID(b)
			n := mem.PagesPerVABlock
			if pagesLeft < n {
				n = pagesLeft
			}
			for i := 0; i < n; i++ {
				d.vm.TouchCPU(block, i, i%o.hostThreads)
			}
			pagesLeft -= n
		}
	}
	return base
}

// TouchHost re-touches an allocation range from the CPU side with the
// given thread count: pages regain live CPU mappings (e.g. host phases
// between GPU kernels). GPU-resident pages are not affected.
func (d *Driver) TouchHost(base mem.Addr, bytes uint64, threads int) {
	if threads < 1 {
		threads = 1
	}
	first := mem.PageOf(base)
	n := int(mem.AlignUp(bytes, mem.PageSize) / mem.PageSize)
	for i := 0; i < n; i++ {
		p := first + mem.PageID(i)
		b := d.blocks.Lookup(p.VABlock())
		if b != nil && b.resident.Has(p.IndexInBlock()) {
			continue
		}
		d.vm.TouchCPU(p.VABlock(), p.IndexInBlock(), i%threads)
	}
}

// ExplicitCopyToGPU models explicit (cudaMemcpy-style) management of the
// range [base, base+bytes): one bulk transfer outside the fault path. All
// covered blocks become fully resident; the returned cost is the transfer
// time, which the caller must account to the virtual clock. It returns an
// error wrapping ErrCapacityExhausted if device memory cannot hold the
// data — explicit management cannot oversubscribe.
func (d *Driver) ExplicitCopyToGPU(base mem.Addr, bytes uint64) (sim.Time, error) {
	nblocks := int(mem.AlignUp(bytes, mem.VABlockSize) / mem.VABlockSize)
	if d.pmm.InUse()+nblocks > d.pmm.Capacity() {
		return 0, fmt.Errorf("uvm: explicit copy of %d blocks (%d in use of %d): %w",
			nblocks, d.pmm.InUse(), d.pmm.Capacity(), ErrCapacityExhausted)
	}
	first := mem.VABlockOf(base)
	for i := 0; i < nblocks; i++ {
		bid := first + mem.VABlockID(i)
		b := d.blocks.Lookup(bid)
		if b == nil {
			b = &blockState{id: bid}
			d.blocks.Set(bid, b)
		}
		if !b.hasChunk {
			id, ok := d.pmm.Alloc(bid)
			if !ok {
				return 0, fmt.Errorf("uvm: explicit copy allocation of block %d: %w",
					bid, ErrCapacityExhausted)
			}
			b.hasChunk = true
			b.chunk = id
			b.allocSeq = d.nextSeq
			d.nextSeq++
			d.allocated = append(d.allocated, b)
		}
		b.resident.SetAll()
		b.populated.SetAll()
		b.dmaMapped = true
		b.lastTouch = d.batchCount
	}
	d.stats.ExplicitBytes += bytes
	return d.link.TransferBytes(bytes, true), nil
}

// IsResidentOnGPU implements gpu.ResidencyChecker.
func (d *Driver) IsResidentOnGPU(p mem.PageID) bool {
	b := d.blocks.Lookup(p.VABlock())
	return b != nil && b.resident.Has(p.IndexInBlock())
}

// ResidentPages returns the count of GPU-resident pages (diagnostics).
func (d *Driver) ResidentPages() int {
	n := 0
	d.blocks.Range(func(_ mem.VABlockID, b *blockState) bool {
		n += b.resident.Count()
		return true
	})
	return n
}

// ChunksInUse returns how many 2 MB GPU chunks are allocated.
func (d *Driver) ChunksInUse() int { return d.pmm.InUse() }

// MemoryStats returns the physical allocator statistics.
func (d *Driver) MemoryStats() gpumem.Stats { return d.pmm.Stats() }
