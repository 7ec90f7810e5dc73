package sim

// queue.go — the engine's event queue: one FIFO of events per distinct
// pending timestamp, kept in a slice sorted by time.
//
// The simulator's traffic is a burst machine: a fault batch completes
// and one replay wakes every stalled warp at the same instant, so almost
// every dispatch shares the previous event's timestamp and the pending
// set spans only a handful of distinct instants. Grouping by instant
// turns the common push into an append to the newest slot and every pop
// into a FIFO head read — no per-event compare, sift or rehash.
//
// Ordering contract: PopMin returns events in strictly ascending
// (at, seq) order, the retired binary heap's comparator. It rests on one
// invariant: seq rises with every push (Engine.newEvent stamps it), so
// appending to an instant's FIFO keeps that FIFO in seq order. The
// lockstep property test and FuzzEventQueueOrder check the queue against
// a container/heap oracle.

import "slices"

// slot is one pending instant: its events in push (= seq) order, with
// evs[:head] already popped.
type slot struct {
	at   Time
	evs  []*event
	head int
}

// add appends ev, reclaiming the popped prefix instead of growing once
// more than half the FIFO is dead — a zero-delay chain at the front
// instant then reuses one bounded array.
func (s *slot) add(ev *event) {
	if len(s.evs) == cap(s.evs) && s.head > len(s.evs)/2 {
		n := copy(s.evs, s.evs[s.head:])
		clear(s.evs[n:])
		s.evs, s.head = s.evs[:n], 0
	}
	s.evs = append(s.evs, ev)
}

// Retention caps applied by trim at run boundaries: the spare list keeps
// at most maxSpareFIFOs backings of capacity at most maxSpareFIFOCap, and
// an emptied slot array above maxIdleSlots entries is released.
const (
	maxSpareFIFOs   = 32
	maxSpareFIFOCap = 1024
	maxIdleSlots    = 1024
)

type eventQueue struct {
	// slots[first:] are the live instants, ascending by at.
	slots []slot
	first int
	size  int
	// spare holds drained FIFO backings (length 0) for new instants.
	spare [][]*event
}

// Push inserts an event.
func (q *eventQueue) Push(ev *event) {
	q.size++
	if n := len(q.slots); n > q.first {
		last := &q.slots[n-1]
		if ev.at == last.at {
			last.add(ev)
			return
		}
		if ev.at < last.at {
			q.insert(ev)
			return
		}
	}
	if len(q.slots) == cap(q.slots) && q.first > len(q.slots)/2 {
		n := copy(q.slots, q.slots[q.first:])
		clear(q.slots[n:])
		q.slots, q.first = q.slots[:n], 0
	}
	q.slots = append(q.slots, q.newSlot(ev))
}

// insert places ev behind the newest instant: into its instant's FIFO
// if one is pending, else into a new slot at its sorted position.
func (q *eventQueue) insert(ev *event) {
	lo, hi := q.first, len(q.slots)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.slots[mid].at < ev.at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if q.slots[lo].at == ev.at {
		q.slots[lo].add(ev)
		return
	}
	if lo == q.first && q.first > 0 {
		q.first--
		q.slots[q.first] = q.newSlot(ev)
		return
	}
	q.slots = append(q.slots, slot{})
	copy(q.slots[lo+1:], q.slots[lo:])
	q.slots[lo] = q.newSlot(ev)
}

func (q *eventQueue) newSlot(ev *event) slot {
	var evs []*event
	if n := len(q.spare); n > 0 {
		evs = q.spare[n-1]
		q.spare[n-1] = nil
		q.spare = q.spare[:n-1]
	}
	return slot{at: ev.at, evs: append(evs, ev)}
}

// PopMin removes and returns the minimum (at, seq) event, or nil when
// the queue is empty.
func (q *eventQueue) PopMin() *event {
	return q.PopMinUntil(MaxTime)
}

// PopMinUntil removes and returns the minimum event if its timestamp is
// <= deadline, or nil otherwise (the event stays queued).
func (q *eventQueue) PopMinUntil(deadline Time) *event {
	if q.size == 0 || q.slots[q.first].at > deadline {
		return nil
	}
	s := &q.slots[q.first]
	ev := s.evs[s.head]
	s.evs[s.head] = nil
	s.head++
	q.size--
	if s.head == len(s.evs) {
		q.spare = append(q.spare, s.evs[:0])
		*s = slot{}
		q.first++
		if q.first == len(q.slots) {
			q.slots, q.first = q.slots[:0], 0
		}
	}
	return ev
}

// trim decays retained storage at a run boundary, so one peak-sized run
// cannot pin its spare FIFOs or slot array for the life of the engine.
func (q *eventQueue) trim() {
	kept := q.spare[:0]
	for _, evs := range q.spare {
		if len(kept) < maxSpareFIFOs && cap(evs) <= maxSpareFIFOCap {
			kept = append(kept, evs)
		}
	}
	clear(q.spare[len(kept):])
	if cap(kept) > maxSpareFIFOs {
		kept = slices.Clone(kept)
	}
	q.spare = kept
	if q.size == 0 && cap(q.slots) > maxIdleSlots {
		q.slots, q.first = nil, 0
	}
}
