package uvm

// fetch.go — the asynchronous front-end of the batch pipeline: interrupt
// wake-up, service-slot arbitration, and the fault-buffer drain loop
// (§2.2's default retrieval policy). Fetch is the one phase that is not
// a synchronous stage: reading the buffer takes virtual time, so faults
// arriving during the drain extend the batch, and the drain re-schedules
// itself until the batch limit is reached or the buffer stays empty.

import "guvm/internal/sim"

// onInterrupt is the device's interrupt line: wake the worker if asleep.
func (d *Driver) onInterrupt() {
	if d.dead {
		return
	}
	if !d.sleeping {
		d.stats.SpuriousWakeUps++
		return
	}
	d.sleeping = false
	d.stats.WakeUps++
	d.eng.Schedule(d.cfg.Costs.WakeupLatency, d.startBatchFn)
}

// startBatch opens a batch: acquire the (possibly shared) service slot,
// charge setup, then drain the buffer.
func (d *Driver) startBatch() {
	if d.inBatch || d.dead {
		return
	}
	if d.dev.Buffer.Len() == 0 {
		d.sleeping = true
		return
	}
	d.inBatch = true
	d.arbiter.Acquire(d.beginBatchFn)
}

// beginBatch runs once the service slot is held: it opens the batch
// context and empties the driver's batch-fault buffer.
func (d *Driver) beginBatch() {
	bc := &d.batch
	bc.start = d.eng.Now()
	bc.faults = bc.faults[:0]
	bc.tFetch = 0
	d.eng.Schedule(d.cfg.Costs.BatchSetup, d.fetchLoopFn)
}

// fetchLoop reads fault records into the batch-fault buffer until the
// batch limit is reached or the buffer stays empty. Reading takes time
// (MMIO/BAR reads are slow), so the loop re-checks the buffer after each
// drain installment and hands the completed batch to the stage pipeline.
func (d *Driver) fetchLoop() {
	bc := &d.batch
	n := len(bc.faults)
	bc.faults = d.dev.Buffer.FetchInto(bc.faults, d.effBatch-n)
	got := bc.faults[n:]
	cost := sim.Time(len(got)) * d.cfg.Costs.FetchPerFault
	bc.tFetch += cost
	if d.prof != nil && len(got) > 0 {
		d.prof.FetchInstallment(d.eng.Now()+cost, got)
	}
	d.eng.Schedule(cost, d.fetchDoneFn)
}

// fetchDone ends one drain installment: drain again if the batch has room
// and faults arrived meanwhile, else service the batch.
func (d *Driver) fetchDone() {
	if len(d.batch.faults) < d.effBatch && d.dev.Buffer.Len() > 0 {
		d.fetchLoop()
		return
	}
	d.serviceBatch()
}
