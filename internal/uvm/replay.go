package uvm

// replay.go — the final batch stage: schedule the batch's remaining
// virtual cost, flush the fault buffer, issue the replay, land the batch
// record, and run the batch sizer and observers. The registered
// BatchSizer implementations live here too.

import (
	"guvm/internal/interconnect"
	"guvm/internal/trace"
)

// replayStage folds the per-block costs into the batch total (serial sum
// or parallel makespan, §6's proposed parallelization — imbalance across
// VABlocks limits the gain), adds the replay cost, and schedules batch
// completion. The engine clock already sits at start + BatchSetup +
// tFetch when the pipeline runs, so only the remainder is scheduled.
type replayStage struct{}

func (replayStage) name() string { return "replay" }

func (replayStage) run(d *Driver, bc *batchCtx) error {
	bc.total += makespan(bc.sc.blockCosts, d.cfg.ServiceWorkers, d.cfg.LoadBalanceLPT, d.cfg.WorkerSync)
	bc.rec.TReplay = d.cfg.Costs.ReplayCost
	bc.total += bc.rec.TReplay

	d.eng.Schedule(bc.total-bc.tFetch-d.cfg.Costs.BatchSetup, d.endBatchFn)
	return nil
}

// endBatch completes the batch once its virtual cost has elapsed: flush
// the buffer, issue the replay, land the record, and run the sizer and
// observers.
func (d *Driver) endBatch() {
	bc := &d.batch
	d.dev.Buffer.Flush()
	d.dev.Replay()
	bc.rec.End = d.eng.Now()
	id := d.Collector.AddBatch(bc.rec)
	d.Collector.AddFaults(id, bc.faults)
	d.sizer.Update(d, &bc.rec)
	d.batchCount++
	d.stats.Batches++
	d.stats.TotalFaults += len(bc.faults)
	d.inBatch = false
	d.arbiter.Release()
	if d.prof != nil {
		// Before the observers: profiler-derived metrics must be
		// current when the obs sampler reads the registry.
		d.prof.EndBatch(id, &d.Collector.Batches[id])
	}
	for _, fn := range d.onBatch {
		fn(id, &d.Collector.Batches[id])
	}
	// Service the next batch if faults are already waiting;
	// otherwise sleep until the next interrupt.
	d.startBatch()
}

// fixedSizer keeps the effective batch size at the configured maximum
// (the shipped driver's behaviour).
type fixedSizer struct{}

func (fixedSizer) Update(d *Driver, rec *trace.BatchRecord) {}

// adaptiveSizer adjusts the effective batch size after each batch,
// implementing the paper's "tune batch size based on the number of
// duplicate faults received": a duplicate-heavy batch shrinks the cap
// (fetching dups is wasted work), a duplicate-light full batch grows it
// back toward the configured maximum.
type adaptiveSizer struct{}

func (adaptiveSizer) Update(d *Driver, rec *trace.BatchRecord) {
	if !d.cfg.AdaptiveBatch || rec.RawFaults == 0 {
		return
	}
	dupFrac := float64(rec.DupFaults()) / float64(rec.RawFaults)
	switch {
	case dupFrac > 0.5:
		d.effBatch /= 2
		if d.effBatch < d.cfg.AdaptiveMin {
			d.effBatch = d.cfg.AdaptiveMin
		}
	case dupFrac < 0.2 && rec.RawFaults >= d.effBatch:
		d.effBatch *= 2
		if d.effBatch > d.cfg.BatchSize {
			d.effBatch = d.cfg.BatchSize
		}
	}
}

// degradedSizer shrinks the effective batch while the interconnect is
// unhealthy — smaller batches mean smaller transfers, so a flap drop
// re-carries less and a degraded link holds the service slot for less
// time — and falls back to duplicate-adaptive behaviour on a healthy
// link. The health query is a stateless hash draw, so consulting it
// perturbs nothing.
type degradedSizer struct{}

func (degradedSizer) Update(d *Driver, rec *trace.BatchRecord) {
	if d.link.Health() != interconnect.Healthy {
		floor := d.cfg.AdaptiveMin
		if floor < 1 {
			floor = 1
		}
		if d.effBatch > floor {
			d.effBatch /= 2
			if d.effBatch < floor {
				d.effBatch = floor
			}
			d.stats.DegradedShrinks++
		}
		return
	}
	adaptiveSizer{}.Update(d, rec)
}
