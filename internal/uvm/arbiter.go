package uvm

import "guvm/internal/sim"

// Arbiter serializes batch servicing across the drivers (devices) that
// share it. The paper's §2.1 architecture is client-server: one host
// driver services page faults for all clients, and §6 identifies the
// driver as "a serial bottleneck for the parallel batch workloads created
// by the GPU". Every driver holds an arbiter; a single device is the
// uncontended case. With several GPUs sharing the host driver, batches
// queue here — the multi-device interference the paper positions as
// follow-on work.
//
// The arbiter is also the system-level ledger for device-loss recovery:
// when a device dies and its driver re-homes resident pages to the host
// (rehome.go), the event is recorded here so audits and post-mortems can
// account for every page across the fault domain.
type Arbiter struct {
	busy  bool
	queue []func()

	// Stats.
	grants    int
	queued    int
	waitTotal sim.Time

	rehomes []RehomeRecord

	eng *sim.Engine
}

// NewArbiter returns an arbiter on the given engine.
func NewArbiter(eng *sim.Engine) *Arbiter { return &Arbiter{eng: eng} }

// ArbiterStats reports service-queue contention.
type ArbiterStats struct {
	Grants    int      // service slots granted
	Queued    int      // grants that had to wait
	TotalWait sim.Time // summed queueing delay
}

// Stats returns a copy of the contention counters.
func (a *Arbiter) Stats() ArbiterStats {
	return ArbiterStats{Grants: a.grants, Queued: a.queued, TotalWait: a.waitTotal}
}

// RehomeRecord is one audited device-loss recovery: device Device died
// after Batch completed batches and its driver evacuated Pages resident
// pages (Bytes bytes) across Blocks VABlocks back to host memory at
// virtual time At.
type RehomeRecord struct {
	Device int
	Batch  int
	Blocks int
	Pages  int
	Bytes  uint64
	At     sim.Time
}

// NoteRehome records a device-loss recovery in the system ledger.
func (a *Arbiter) NoteRehome(r RehomeRecord) {
	a.rehomes = append(a.rehomes, r)
}

// Rehomes returns the recorded device-loss recoveries in event order.
func (a *Arbiter) Rehomes() []RehomeRecord {
	out := make([]RehomeRecord, len(a.rehomes))
	copy(out, a.rehomes)
	return out
}

// Acquire runs fn as soon as the service slot is free: immediately if
// idle, else after the current holder (and earlier waiters) release.
func (a *Arbiter) Acquire(fn func()) {
	a.grants++
	if !a.busy {
		a.busy = true
		fn()
		return
	}
	a.queued++
	enq := a.eng.Now()
	a.queue = append(a.queue, func() {
		a.waitTotal += a.eng.Now() - enq
		fn()
	})
}

// Release frees the slot, handing it to the next waiter (same virtual
// instant). It panics if the slot is not held — a driver bug.
func (a *Arbiter) Release() {
	if !a.busy {
		panic("uvm: arbiter release without acquire")
	}
	if len(a.queue) == 0 {
		a.busy = false
		return
	}
	next := a.queue[0]
	a.queue = a.queue[1:]
	a.eng.Schedule(0, next)
}
