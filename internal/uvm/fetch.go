package uvm

// fetch.go — the asynchronous front-end of the batch pipeline: interrupt
// wake-up, service-slot arbitration, and the fault-buffer drain loop
// (§2.2's default retrieval policy). Fetch is the one phase that is not
// a synchronous stage: reading the buffer takes virtual time, so faults
// arriving during the drain extend the batch, and the drain re-schedules
// itself until the batch limit is reached or the buffer stays empty.

import (
	"guvm/internal/gpu"
	"guvm/internal/sim"
)

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
	d.eng.Schedule(d.cfg.Costs.WakeupLatency, d.startBatch)
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

// beginBatch runs once the service slot is held.
func (d *Driver) beginBatch() {
	start := d.eng.Now()
	d.eng.Schedule(d.cfg.Costs.BatchSetup, func() {
		d.fetchLoop(start, nil, 0)
	})
}

// fetchLoop reads fault records until the batch limit is reached or the
// buffer stays empty. Reading takes time (MMIO/BAR reads are slow), so
// the loop re-checks the buffer after each drain installment and hands
// the completed batch to the stage pipeline.
func (d *Driver) fetchLoop(start sim.Time, faults []gpu.Fault, tFetch sim.Time) {
	got := d.dev.Buffer.Fetch(d.effBatch - len(faults))
	faults = append(faults, got...)
	cost := sim.Time(len(got)) * d.cfg.Costs.FetchPerFault
	tFetch += cost
	if d.prof != nil && len(got) > 0 {
		d.prof.FetchInstallment(d.eng.Now()+cost, got)
	}
	d.eng.Schedule(cost, func() {
		if len(faults) < d.effBatch && d.dev.Buffer.Len() > 0 {
			d.fetchLoop(start, faults, tFetch)
			return
		}
		d.serviceBatch(start, faults, tFetch)
	})
}
