package gpu

import (
	"guvm/internal/mem"
	"guvm/internal/sim"
)

// Fault is one entry of the GPU fault buffer: the metadata the GMMU writes
// and the instrumented driver of the paper logs per fault (timestamp, SM of
// origin, µTLB, page, access type).
type Fault struct {
	Time sim.Time // arrival time in the fault buffer
	// Issued is when the GMMU observed the faulting access — before the
	// GMMU latency and any injected-drop re-deliveries that delay Time.
	// The lifecycle profiler's "arrival" mark; never hashed by audits.
	Issued sim.Time
	Page   mem.PageID
	SM     int
	UTLB   int
	Warp   int // global warp id
	Block  int // thread block index
	Kind   AccessKind
	// Dup marks a hardware-visible duplicate: a fault written while the
	// same page already had a pending entry in the same µTLB.
	Dup bool
}

// FaultBuffer is the circular buffer in GPU memory that the GMMU fills and
// the host driver drains (§2.1). The driver configures its size; overflow
// drops fault records (the underlying accesses re-fault at the next
// replay, so nothing is lost except work).
type FaultBuffer struct {
	entries  []Fault
	capacity int
	// Dropped counts hardware-overflow drops (buffer full).
	Dropped int
	// Flushed counts records discarded by buffer flushes before replay.
	Flushed int
	// Pushed counts all records ever written.
	Pushed int
}

// NewFaultBuffer returns a buffer holding up to capacity entries.
func NewFaultBuffer(capacity int) *FaultBuffer {
	if capacity < 1 {
		panic("gpu: fault buffer capacity must be positive")
	}
	return &FaultBuffer{capacity: capacity}
}

// Len returns the number of buffered faults.
func (b *FaultBuffer) Len() int { return len(b.entries) }

// Push appends a fault record. It reports false on overflow.
func (b *FaultBuffer) Push(f Fault) bool {
	if len(b.entries) >= b.capacity {
		b.Dropped++
		return false
	}
	b.entries = append(b.entries, f)
	b.Pushed++
	return true
}

// FetchInto removes up to max faults in arrival order and appends them to
// dst, returning the extended slice. This is the driver's batch-formation
// read: "read faults until the batch size limit is reached or no faults
// remain" (§2.2). The caller owns dst, so a driver reuses one batch
// buffer instead of allocating per drain.
func (b *FaultBuffer) FetchInto(dst []Fault, max int) []Fault {
	n := min(len(b.entries), max)
	dst = append(dst, b.entries[:n]...)
	b.entries = append(b.entries[:0], b.entries[n:]...)
	return dst
}

// Flush discards all buffered faults, returning how many were dropped. The
// driver flushes before each replay; dropped non-duplicates re-fault.
func (b *FaultBuffer) Flush() int {
	n := len(b.entries)
	b.entries = b.entries[:0]
	b.Flushed += n
	return n
}
