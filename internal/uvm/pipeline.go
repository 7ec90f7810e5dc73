package uvm

// pipeline.go — the staged batch-servicing pipeline.
//
// The driver services each fault batch through an explicit sequence of
// stages mirroring the paper's phase decomposition (§2.2/§5):
//
//	fetch (fetch.go, async)        — drain the fault buffer
//	dedup (dedup.go)               — duplicate classification (§4.2),
//	                                 stale filtering, VABlock grouping
//	service (this file)            — per-VABlock block pipeline
//	cross-block (prefetchplan.go)  — eager whole-block migration (§6)
//	replay (replay.go)             — makespan, batch sizing, replay issue
//
// Within the service stage, each VABlock runs through a second pipeline
// of block steps:
//
//	residency (residency.go)       — chunk allocation/eviction, DMA map,
//	                                 CPU unmap (§4.4, §5.1, §5.4)
//	prefetch-plan (prefetchplan.go)— migration set planning (§5.2)
//	populate (transfer.go)         — first-touch zero-fill (§5.1)
//	transfer (transfer.go)         — span coalescing, link transfer,
//	                                 page-table update
//
// Stage costs flow into the existing trace.BatchRecord fields (TFetch,
// TDedup, TBlockMgmt, TDMAMap, TUnmap, TPopulate, TTransfer, TPageTable,
// TEvict, TReplay) and the obs span taxonomy derived from them —
// unchanged from the monolithic driver, and bit-identical batch for
// batch (testdata/digests_*.golden is the proof).
//
// Ownership rules for the shared per-batch state: batchCtx and blockCtx
// are pooled on the Driver and valid only while inBatch is true; stages
// are stateless singletons and receive everything through the contexts.
// The batchScratch buffers inside batchCtx are owned by exactly one
// stage at a time (see the field comments in driver.go); nothing
// retained past the batch — trace records, observer arguments — may
// alias them.

import (
	"guvm/internal/gpu"
	"guvm/internal/mem"
	"guvm/internal/sim"
	"guvm/internal/trace"
)

// batchCtx carries one batch through the pipeline: the raw faults and
// fetch cost from the async front-end, the record under construction,
// the accumulated virtual-time cost, and the pooled scratch.
//
// faults is the driver's batch-fault buffer: beginBatch empties it, the
// fetch loop appends each drain installment, and it stays valid until
// the batch ends (the replay completion callback). Whatever outlives the
// batch copies it — the Collector's fault log and the profiler's page
// list both do.
type batchCtx struct {
	start  sim.Time
	faults []gpu.Fault
	tFetch sim.Time
	rec    trace.BatchRecord
	total  sim.Time
	sc     *batchScratch
}

// blockCtx carries one VABlock through the block steps. For an eager
// cross-block migration (§6) pages is nil and eager is set: the plan
// step selects the whole block and the transfer step accounts the pages
// as cross-block prefetched.
type blockCtx struct {
	bid       mem.VABlockID
	pages     []mem.PageID
	eager     bool
	b         *blockState
	faulted   mem.PageSet
	toMigrate mem.PageSet
	cost      sim.Time
	// done, when set by a step, short-circuits the remaining block steps:
	// the block was fully serviced early (e.g. remote-mapped by the
	// access-counter gate instead of migrated).
	done bool
}

// stage is one batch-level phase. A stage reads and mutates the batch
// context; a returned error aborts the run (injection-fatal paths).
type stage interface {
	name() string
	run(d *Driver, bc *batchCtx) error
}

// blockStep is one VABlock-level phase within the service stage.
type blockStep interface {
	name() string
	run(d *Driver, bc *batchCtx, blk *blockCtx) error
}

// The stage and block-step orders are no longer fixed here: the selected
// architecture (arch.go) declares them, and the driver dispatches through
// d.arch. Stages stay stateless singletons shared by every driver.

// serviceBatch runs the batch the fetch front-end collected in d.batch
// through the stage pipeline. It is entered with the engine clock at
// batch start + BatchSetup + tFetch; the replay stage schedules the
// remainder of the batch's virtual cost.
func (d *Driver) serviceBatch() {
	bc := &d.batch
	start, faults := bc.start, bc.faults
	bc.rec = trace.BatchRecord{
		Start:     start,
		RawFaults: len(faults),
		TFetch:    bc.tFetch,
	}
	if d.dev != nil {
		bc.rec.FaultsPerSM = make([]uint16, d.dev.Config().NumSMs)
	}
	bc.total = 0
	bc.sc = &d.scratch
	bc.sc.reset(len(faults))
	if d.prof != nil {
		d.prof.BeginBatch(start, d.eng.Now(), faults)
	}
	for _, st := range d.arch.stages {
		if err := st.run(d, bc); err != nil {
			d.fail(err)
			return
		}
	}
}

// serviceStage runs the block pipeline over each serviced VABlock: the
// sorted non-stale pages make every block a contiguous run, processed in
// ascending block order exactly as the monolithic driver did.
type serviceStage struct{}

func (serviceStage) name() string { return "service" }

func (serviceStage) run(d *Driver, bc *batchCtx) error {
	sc := bc.sc
	for lo := 0; lo < len(sc.nonStale); {
		bid := sc.nonStale[lo].VABlock()
		hi := lo + 1
		for hi < len(sc.nonStale) && sc.nonStale[hi].VABlock() == bid {
			hi++
		}
		c, err := d.runBlock(bid, sc.nonStale[lo:hi], false, bc)
		if err != nil {
			return err
		}
		sc.blockCosts = append(sc.blockCosts, c)
		lo = hi
	}
	return nil
}

// runBlock services one VABlock through the block steps and returns its
// virtual-time cost. eager marks a cross-block whole-block migration.
func (d *Driver) runBlock(bid mem.VABlockID, pages []mem.PageID, eager bool, bc *batchCtx) (sim.Time, error) {
	blk := &d.block
	blk.bid = bid
	blk.pages = pages
	blk.eager = eager
	blk.b = nil
	blk.faulted.Reset()
	blk.toMigrate.Reset()
	blk.cost = d.cfg.Costs.PerVABlock
	blk.done = false
	bc.rec.TBlockMgmt += d.cfg.Costs.PerVABlock
	if d.prof == nil {
		for _, st := range d.arch.blockSteps {
			if err := st.run(d, bc, blk); err != nil {
				return blk.cost, err
			}
			if blk.done {
				break
			}
		}
		return blk.cost, nil
	}
	// Profiled path: identical step sequence, but the per-step cost
	// deltas are captured for attribution (the steps themselves only add
	// to blk.cost, so before/after differencing is exact). stepCosts is
	// driver-held scratch sliced to the architecture's step count.
	steps := d.stepCosts[:len(d.arch.blockSteps)]
	for i := range steps {
		steps[i] = 0
	}
	for i, st := range d.arch.blockSteps {
		before := blk.cost
		if err := st.run(d, bc, blk); err != nil {
			return blk.cost, err
		}
		steps[i] = blk.cost - before
		if blk.done {
			break
		}
	}
	d.prof.BlockServiced(bid, len(pages), eager, steps, blk.cost)
	return blk.cost, nil
}

// fail aborts the run with err as its terminal error, releasing the
// shared service slot so diagnostics from other drivers stay coherent.
func (d *Driver) fail(err error) {
	d.inBatch = false
	d.arbiter.Release()
	d.eng.Fail(err)
}
